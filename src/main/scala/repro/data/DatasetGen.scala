package repro.data

import repro.core.Point
import scala.util.Random

/** Specification of one synthetic analog of a paper dataset (Table I).
  *
  * @param id          paper alias (S1..S13)
  * @param name        original dataset name
  * @param n           sample count of the original
  * @param p           feature count of the original
  * @param q           class count
  * @param ir          imbalance ratio (majority / minority count)
  * @param sep         class separation knob; centroids are axis-anchored
  *                    (two classes at ±sep/sqrt(2) on the first axis,
  *                    otherwise class c at ±sep·(1 + 0.7·tier) on axis
  *                    c mod min(p, q)) plus 0.15·sep Gaussian jitter, so
  *                    adjacent classes sit about sep·sqrt(2) apart at any p
  *                    (see `DatasetGen.centroids`; calibrated to the
  *                    paper's full-data DT accuracy)
  * @param clusters    Gaussian clusters per class (banana-like sets use 2)
  * @param catIdx      indices of integer-quantized ("categorical") columns
  */
final case class DatasetSpec(
    id: String, name: String, n: Int, p: Int, q: Int, ir: Double,
    sep: Double, clusters: Int = 1, catIdx: Set[Int] = Set.empty,
) {
  /** Effective size/dim after bench caps. */
  def scaled(maxN: Int, maxP: Int): (Int, Int) = (math.min(n, maxN), math.min(p, maxP))
}

/** Synthetic stand-ins for the paper's 13 UCI/KEEL/Kaggle datasets.
  *
  * The container is offline, so each dataset is replaced by a Gaussian
  * mixture matching its sample count, dimensionality, class count and
  * imbalance ratio (classes sized by geometric interpolation so that
  * majority/minority = IR), with a separation parameter calibrated to the
  * paper's observed difficulty. See DESIGN.md §3.
  */
object DatasetGen {

  /** The 13 datasets of Table I. */
  val specs: Vector[DatasetSpec] = Vector(
    DatasetSpec("S1", "Credit Approval", 690, 15, 2, 1.25, sep = 1.55, catIdx = Set(0, 3)),
    DatasetSpec("S2", "Diabetes", 768, 8, 2, 1.87, sep = 1.05),
    DatasetSpec("S3", "Car Evaluation", 1728, 6, 4, 18.62, sep = 2.30, catIdx = Set(0, 1, 2, 3, 4, 5)),
    DatasetSpec("S4", "Pumpkin Seeds", 2500, 12, 2, 1.08, sep = 1.88),
    DatasetSpec("S5", "banana", 5300, 2, 2, 1.23, sep = 1.85, clusters = 2),
    DatasetSpec("S6", "page-blocks", 5473, 11, 5, 175.46, sep = 2.90),
    DatasetSpec("S7", "coil2000", 9822, 85, 2, 15.76, sep = 1.00),
    DatasetSpec("S8", "Dry Bean", 13611, 16, 7, 6.79, sep = 3.05),
    DatasetSpec("S9", "HTRU2", 17898, 8, 2, 9.92, sep = 2.75),
    DatasetSpec("S10", "magic", 19020, 10, 2, 1.84, sep = 1.78),
    DatasetSpec("S11", "shuttle", 58000, 9, 7, 4558.6, sep = 6.50),
    DatasetSpec("S12", "Gas Sensor", 13910, 128, 6, 1.83, sep = 3.80),
    DatasetSpec("S13", "USPS", 9298, 256, 10, 2.19, sep = 3.80),
  )

  /** Class sizes: geometric interpolation with max/min = ir, summing to n,
    * floored at 3 samples so every class survives 5-fold splitting.
    */
  def classCounts(n: Int, q: Int, ir: Double): Array[Int] = {
    require(q >= 2 && n >= 3 * q && ir >= 1.0, s"bad class layout n=$n q=$q ir=$ir")
    val w = Array.tabulate(q)(i => math.pow(ir, -i.toDouble / (q - 1)))
    val s = w.sum
    val counts = w.map(wi => math.max(3, math.round(n * wi / s).toInt))
    // Fix rounding drift on the majority class.
    counts(0) = math.max(3, counts(0) + (n - counts.sum))
    counts
  }

  /** Centroid matrix (q classes x clusters) for a spec at dimension `p`.
    *
    * Class centroids are axis-anchored: class c points along basis
    * direction c mod k (k = min(p, q)) with magnitude sep (alternating sign
    * and growing magnitude for higher tiers when q > k), plus a small
    * jitter. Axis anchoring matters: real tabular datasets have per-feature
    * class separation that axis-aligned decision trees exploit; random
    * dense directions would systematically under-serve DT vs kNN.
    * Two classes then sit ~sep*sqrt(2) apart, so the Bayes error of an
    * adjacent pair is about Phi(-sep/sqrt(2)) — the knob `sep` is solved
    * from the paper's full-data DT accuracy per dataset.
    */
  private[data] def centroids(spec: DatasetSpec, p: Int, rng: Random): Array[Array[Array[Double]]] = {
    val k = math.min(p, math.max(2, spec.q))
    Array.tabulate(spec.q) { c =>
      val base = new Array[Double](p)
      val dir = if (spec.q == 2) 0 else c % k
      if (spec.q == 2) {
        // Binary: oppose the classes on one axis so the Bayes boundary is a
        // single axis-aligned threshold; distance stays sep*sqrt(2).
        base(0) = (if (c == 0) 1.0 else -1.0) * spec.sep / math.sqrt(2.0)
      } else {
        val tier = c / k
        base(dir) = spec.sep * (1.0 + 0.7 * tier) * (if (tier % 2 == 0) 1.0 else -1.0)
      }
      var d = 0
      while (d < k) { base(d) += 0.15 * spec.sep * rng.nextGaussian(); d += 1 }
      Array.tabulate(spec.clusters) { j =>
        if (spec.clusters == 1) base
        else {
          val off = (j - (spec.clusters - 1) / 2.0) * 0.9 * spec.sep
          Array.tabulate(p)(d => base(d) + (if (d == (dir + 1) % p) off else 0.0))
        }
      }
    }
  }

  /** Generate a dataset for `spec` with N capped at `maxN` and p at `maxP`.
    * Deterministic in `seed`; returned points are shuffled and carry
    * sequential ids.
    */
  def generate(spec: DatasetSpec, maxN: Int = Int.MaxValue, maxP: Int = Int.MaxValue,
               seed: Long = 7): Vector[Point] = {
    val (n, p) = spec.scaled(maxN, maxP)
    val rng = new Random(seed ^ spec.id.hashCode.toLong)
    val counts = classCounts(n, spec.q, spec.ir)
    val cents = centroids(spec, p, rng)
    val pts = Vector.newBuilder[Point]
    var id = 0L
    var cls = 0
    while (cls < spec.q) {
      var i = 0
      while (i < counts(cls)) {
        val c = cents(cls)(rng.nextInt(spec.clusters))
        val x = new Array[Double](p)
        var d = 0
        while (d < p) {
          val v = c(d) + rng.nextGaussian()
          x(d) = if (spec.catIdx.contains(d)) math.round(v * 2.0) / 2.0 else v
          d += 1
        }
        pts += Point(x, cls, id)
        id += 1; i += 1
      }
      cls += 1
    }
    val r2 = new Random(seed * 31 + 17)
    r2.shuffle(pts.result())
  }

  /** Inject class noise: flip `ratio` of the labels to a different random
    * class (paper §V-A2 — noise is injected over the whole dataset, so
    * test folds are noisy too). Ids are preserved.
    */
  def withNoise(data: Vector[Point], ratio: Double, seed: Long = 11): Vector[Point] = {
    require(ratio >= 0.0 && ratio < 1.0, s"noise ratio must be in [0,1), got $ratio")
    if (ratio == 0.0) return data
    val labels = data.map(_.label).distinct.sorted
    require(labels.size >= 2, "need >= 2 classes to inject class noise")
    val rng = new Random(seed)
    val flipped = rng.shuffle(data.indices.toVector).take(math.round(ratio * data.size).toInt).toSet
    data.zipWithIndex.map { case (pt, i) =>
      if (!flipped.contains(i)) pt
      else {
        val others = labels.filterNot(_ == pt.label)
        pt.copy(label = others(rng.nextInt(others.size)))
      }
    }
  }

  /** Stratified k-fold split: per-class shuffle, round-robin assignment.
    * Returns (train, test) pairs, test folds disjoint and covering.
    */
  def stratifiedFolds(data: Vector[Point], k: Int, seed: Long = 13): Vector[(Vector[Point], Vector[Point])] = {
    require(k >= 2, s"need k >= 2 folds, got $k")
    val rng = new Random(seed)
    val foldOf = scala.collection.mutable.Map.empty[Long, Int]
    data.groupBy(_.label).toVector.sortBy(_._1).foreach { case (_, pts) =>
      rng.shuffle(pts).zipWithIndex.foreach { case (pt, i) => foldOf(pt.id) = i % k }
    }
    Vector.tabulate(k) { f =>
      val (test, train) = data.partition(pt => foldOf(pt.id) == f)
      (train, test)
    }
  }

  /** Z-score scaling fitted on `train`, applied to both sets. */
  def standardize(train: Vector[Point], test: Vector[Point]): (Vector[Point], Vector[Point]) = {
    require(train.nonEmpty, "cannot standardize an empty training set")
    val p = train.head.dim
    val mean = new Array[Double](p)
    train.foreach { pt => var d = 0; while (d < p) { mean(d) += pt.features(d); d += 1 } }
    var d = 0; while (d < p) { mean(d) /= train.size; d += 1 }
    val varr = new Array[Double](p)
    train.foreach { pt =>
      var d = 0
      while (d < p) { val e = pt.features(d) - mean(d); varr(d) += e * e; d += 1 }
    }
    val std = varr.map(v => math.max(math.sqrt(v / train.size), 1e-9))
    def tx(pts: Vector[Point]) = pts.map { pt =>
      val z = new Array[Double](p)
      var d = 0
      while (d < p) { z(d) = (pt.features(d) - mean(d)) / std(d); d += 1 }
      pt.copy(features = z)
    }
    (tx(train), tx(test))
  }
}
