package repro.sampling

import repro.core.{Neighbors, Point}
import scala.collection.mutable
import scala.util.Random

/** The SMOTE family of oversamplers (baselines for the imbalanced study).
  *
  * All three bring every non-majority class up to the majority-class count
  * by interpolating synthetic samples between a class member and one of its
  * k=5 within-class nearest neighbors:
  *
  *  - [[Smote.smote]]            — classic SMOTE over all minority samples;
  *  - [[Smote.borderlineSmote]]  — Borderline-SMOTE1: only DANGER samples
  *    (m/2 <= heterogeneous among m=5 global NNs < m) seed synthetics;
  *  - [[Smote.smoteNC]]          — SMOTE for mixed data: categorical
  *    columns of a synthetic sample take the majority value among the
  *    seed's k nearest within-class neighbors instead of interpolating.
  */
object Smote {
  private val K = 5 // within-class neighbors used for interpolation
  private val M = 5 // global neighbors used for DANGER detection

  private def interpolate(a: Array[Double], b: Array[Double], t: Double): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i) + t * (b(i) - a(i)); i += 1 }
    out
  }

  /** Generate `need` synthetics for class `cls` from `seeds`, interpolating
    * toward within-class neighbors drawn from `classPts`. Ids continue
    * after `nextId`. Categorical columns (if any) are voted, not averaged.
    */
  private def synthesize(
      seeds: Vector[Point], classPts: Vector[Point], cls: Int, need: Int,
      nextId: Long, rng: Random, catIdx: Set[Int]): Vector[Point] = {
    if (need <= 0 || seeds.isEmpty) return Vector.empty
    val rows = Neighbors.rows(classPts); val ids = classPts.map(_.id).toArray
    val rowOf = ids.zipWithIndex.toMap
    // Each seed's K nearest within its class, found on its first draw.
    val neighbours = mutable.HashMap.empty[Long, Array[Point]]
    val out = Vector.newBuilder[Point]
    var id = nextId
    var made = 0
    while (made < need) {
      val seed = seeds(rng.nextInt(seeds.size))
      val neigh = neighbours.getOrElseUpdate(seed.id,
        Neighbors.kNearest(rows, seed.dim, seed.features, K, ids, exclude = rowOf(seed.id)).map(classPts))
      val x =
        if (neigh.isEmpty) seed.features.clone() // lone sample: duplicate
        else {
          val nb = neigh(rng.nextInt(neigh.size))
          val f = interpolate(seed.features, nb.features, rng.nextDouble())
          catIdx.foreach { c =>
            val votes = neigh.groupBy(_.features(c)).toVector
            f(c) = votes.maxBy { case (v, ps) => (ps.size, -v) }._1
          }
          f
        }
      out += Point(x, cls, id)
      id += 1; made += 1
    }
    out.result()
  }

  private def oversample(
      data: Vector[Point], rng: Random, catIdx: Set[Int],
      seedsFor: (Int, Vector[Point]) => Vector[Point]): Vector[Point] = {
    if (data.isEmpty) return data
    val byClass = data.groupBy(_.label)
    if (byClass.size <= 1) return data
    val maj = Point.mostCommon(data.iterator.map(_.label))
    val target = byClass(maj).size
    var nextId = data.map(_.id).max + 1
    val extra = Vector.newBuilder[Point]
    byClass.toVector.sortBy(_._1).foreach { case (cls, pts) =>
      if (cls != maj && pts.size < target) {
        val seeds = seedsFor(cls, pts)
        val made = synthesize(seeds, pts, cls, target - pts.size, nextId, rng, catIdx)
        nextId += made.size
        extra ++= made
      }
    }
    data ++ extra.result()
  }

  /** Classic SMOTE (SM). */
  def smote(data: Vector[Point], seed: Long = 42): Vector[Point] =
    oversample(data, new Random(seed), Set.empty, (_, pts) => pts)

  /** Borderline-SMOTE1 (BSM): only DANGER minority samples seed synthetics.
    * A minority sample is DANGER when, among its m=5 nearest neighbors in
    * the whole dataset, at least half but not all are heterogeneous. Falls
    * back to all class samples when no DANGER sample exists.
    */
  def borderlineSmote(data: Vector[Point], seed: Long = 42): Vector[Point] =
    oversample(data, new Random(seed), Set.empty, (cls, pts) => {
      val danger = dangerSet(data, cls)
      if (danger.nonEmpty) danger else pts
    })

  /** SMOTENC (SMNC): SMOTE with categorical columns voted among neighbors. */
  def smoteNC(data: Vector[Point], categoricalIdx: Set[Int], seed: Long = 42): Vector[Point] =
    oversample(data, new Random(seed), categoricalIdx, (_, pts) => pts)

  /** DANGER samples of class `cls`, in data order. */
  private[sampling] def dangerSet(data: Vector[Point], cls: Int): Vector[Point] = {
    val rows = Neighbors.rows(data); val ids = data.map(_.id).toArray
    data.indices.filter { i =>
      data(i).label == cls && {
        val neigh = Neighbors.kNearest(rows, data(i).dim, data(i).features, M, ids, exclude = i)
        val het = neigh.count(data(_).label != cls)
        neigh.nonEmpty && het * 2 >= neigh.length && het < neigh.length
      }
    }.map(data).toVector
  }
}
