package repro.ml.reference

// The learner from before the single tree grower, kept verbatim (only the
// package is new) as the reference of repro.ml.TreeDiffSpec.

import repro.core.Point
import repro.ml.{Classifier, Learner}
import scala.util.Random

/** Binary tree node for classification trees. */
sealed trait TreeNode extends Serializable
final case class Leaf(label: Int) extends TreeNode
final case class Split(feature: Int, threshold: Double, left: TreeNode, right: TreeNode)
    extends TreeNode

/** CART decision tree: gini impurity, threshold splits on continuous
  * features, majority leaves. `featuresPerSplit > 0` evaluates a random
  * feature subset at every split (used by [[RandomForest]]); 0 means all.
  */
final case class DecisionTree(
    maxDepth: Int = 25,
    minSamplesSplit: Int = 2,
    featuresPerSplit: Int = 0,
) extends Learner {
  override val name = "DT"

  override def fit(train: Vector[Point], seed: Long): Classifier = {
    require(train.nonEmpty, "DT needs a non-empty training set")
    DecisionTree.build(train, maxDepth, minSamplesSplit, featuresPerSplit, new Random(seed))
  }
}

final class TreeModel(val root: TreeNode) extends Classifier {
  override def predict(x: Array[Double]): Int = {
    var node = root
    while (true) {
      node match {
        case Leaf(l)                => return l
        case Split(f, thr, lft, rt) => node = if (x(f) <= thr) lft else rt
      }
    }
    throw new IllegalStateException("unreachable")
  }

  /** Number of decision nodes + leaves — exposed for tests. */
  def size: Int = {
    def go(n: TreeNode): Int = n match {
      case Leaf(_)          => 1
      case Split(_, _, a, b) => 1 + go(a) + go(b)
    }
    go(root)
  }
}

object DecisionTree {

  private final case class BestSplit(feature: Int, threshold: Double, impurity: Double)

  /** Weighted gini split search over `idx` for one feature; returns the
    * best (threshold, weightedImpurityNumerator) using the sum-of-squares
    * incremental update, or None if the feature is constant on `idx`.
    */
  private def bestForFeature(
      xs: Array[Array[Double]], ys: Array[Int], k: Int,
      idx: Array[Int], f: Int): Option[(Double, Double)] = {
    val n = idx.length
    val order = idx.sortBy(i => xs(i)(f))
    val cntL = new Array[Int](k)
    val cntR = new Array[Int](k)
    order.foreach(i => cntR(ys(i)) += 1)
    var sqL = 0.0; var sqR = 0.0
    var c = 0
    while (c < k) { sqR += cntR(c).toDouble * cntR(c); c += 1 }

    var best = Double.PositiveInfinity
    var bestThr = Double.NaN
    var i = 0
    while (i < n - 1) {
      val cls = ys(order(i))
      sqL += 2.0 * cntL(cls) + 1; cntL(cls) += 1
      sqR -= 2.0 * cntR(cls) - 1; cntR(cls) -= 1
      val v = xs(order(i))(f); val vNext = xs(order(i + 1))(f)
      if (v < vNext) {
        val nL = i + 1; val nR = n - nL
        // minimize  nL*(1 - sqL/nL^2) + nR*(1 - sqR/nR^2)  =  n - sqL/nL - sqR/nR
        val imp = -sqL / nL - sqR / nR
        if (imp < best) { best = imp; bestThr = v + (vNext - v) / 2 }
      }
      i += 1
    }
    if (bestThr.isNaN) None else Some((bestThr, best))
  }

  private[ml] def build(
      train: Vector[Point], maxDepth: Int, minSamplesSplit: Int,
      featuresPerSplit: Int, rng: Random): TreeModel = {
    val n = train.size
    val p = train.head.dim
    val xs = train.iterator.map(_.features).toArray
    val labels = train.map(_.label).distinct.sorted.toArray
    val labIdx = labels.zipWithIndex.toMap
    val ys = train.iterator.map(pt => labIdx(pt.label)).toArray
    val k = labels.length

    def majority(idx: Array[Int]): Int = {
      val cnt = new Array[Int](k)
      idx.foreach(i => cnt(ys(i)) += 1)
      var best = 0; var i = 1
      while (i < k) { if (cnt(i) > cnt(best)) best = i; i += 1 }
      labels(best)
    }

    def pure(idx: Array[Int]): Boolean = {
      val first = ys(idx(0)); idx.forall(i => ys(i) == first)
    }

    def grow(idx: Array[Int], depth: Int): TreeNode = {
      if (idx.length < minSamplesSplit || depth >= maxDepth || pure(idx)) Leaf(majority(idx))
      else {
        val feats: Seq[Int] =
          if (featuresPerSplit <= 0 || featuresPerSplit >= p) 0 until p
          else rng.shuffle((0 until p).toVector).take(featuresPerSplit)
        var best: Option[BestSplit] = None
        feats.foreach { f =>
          bestForFeature(xs, ys, k, idx, f).foreach { case (thr, imp) =>
            if (best.forall(b => imp < b.impurity)) best = Some(BestSplit(f, thr, imp))
          }
        }
        best match {
          case None => Leaf(majority(idx))
          case Some(BestSplit(f, thr, _)) =>
            val (l, r) = idx.partition(i => xs(i)(f) <= thr)
            if (l.isEmpty || r.isEmpty) Leaf(majority(idx))
            else Split(f, thr, grow(l, depth + 1), grow(r, depth + 1))
        }
      }
    }

    new TreeModel(grow((0 until n).toArray, 0))
  }
}
