package repro.gbs

import repro.core.{GranularBall, Neighbors, Point}
import scala.collection.mutable
import scala.util.Random

/** The granular-ball generation method used by GGBS / IGBS (baselines).
  *
  * The whole dataset starts as one ball (mean center / mean radius, Eq.1).
  * A ball is split by k-division — one centroid per class present in the
  * ball, every sample assigned to its nearest centroid — while its purity
  * is below the threshold AND it holds more than `2 * p` samples. Balls may
  * overlap and may leave samples outside their radius; both defects are
  * intentional here, as they are the limitations the paper attributes to
  * the baseline.
  */
object KDivisionGBG {

  /** Generate the baseline ball set.
    *
    * @param purityThreshold stop splitting once purity >= this (paper
    *                        baselines require tuning it; default 1.0)
    */
  def generate(data: Vector[Point], purityThreshold: Double = 1.0, seed: Long = 42): Vector[GranularBall] = {
    if (data.isEmpty) return Vector.empty
    val p = data.head.dim
    val minSize = 2 * p
    val rng = new Random(seed)
    val out = Vector.newBuilder[GranularBall]
    val queue = mutable.Stack[Vector[Point]](data)

    while (queue.nonEmpty) {
      val pts = queue.pop()
      val ball = GranularBall.meanBall(pts)
      if (ball.purity >= purityThreshold || pts.size <= minSize) out += ball
      else {
        val children = kDivide(pts, rng)
        if (children.size <= 1) out += ball // unsplittable: emit as-is
        else children.foreach(queue.push)
      }
    }
    out.result()
  }

  /** Split a sample set into one child per class via nearest class
    * centroid; degenerate assignments fall back to a random bisection so
    * splitting always makes progress.
    */
  private[gbs] def kDivide(pts: Vector[Point], rng: Random): Vector[Vector[Point]] = {
    val byClass = pts.groupBy(_.label)
    if (byClass.size <= 1) return Vector(pts)
    val labs = byClass.keys.toVector.sorted
    val p = pts.head.dim
    val centroids = new Array[Double](labs.size * p)
    labs.indices.foreach { k =>
      val ps = byClass(labs(k)); val off = k * p
      ps.foreach { pt => var i = 0; while (i < p) { centroids(off + i) += pt.features(i); i += 1 } }
      var i = 0; while (i < p) { centroids(off + i) /= ps.size; i += 1 }
    }
    val key = labs.map(_.toLong).toArray
    val assigned = pts.groupBy(pt => labs(Neighbors.kNearest(centroids, p, pt.features, 1, key)(0)))
    val children = assigned.values.toVector
    if (children.size <= 1) {
      // All samples nearest one centroid — random bisection keeps progress.
      val shuffled = rng.shuffle(pts)
      val (a, b) = shuffled.splitAt(shuffled.size / 2)
      Vector(a, b).filter(_.nonEmpty)
    } else children
  }
}
