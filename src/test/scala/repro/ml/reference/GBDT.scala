package repro.ml.reference

// The learner from before the single tree grower, kept verbatim (only the
// package is new) as the reference of repro.ml.TreeDiffSpec.

import repro.core.Point
import repro.ml.{Classifier, Learner}
import scala.collection.mutable
import scala.util.Random

/** Regression tree node used inside the boosting ensemble. */
sealed trait RegNode extends Serializable
final case class RegLeaf(weight: Double) extends RegNode
final case class RegSplit(feature: Int, threshold: Double, left: RegNode, right: RegNode)
    extends RegNode

/** Gradient-boosted decision trees for multi-class classification.
  *
  * Softmax objective; per round, one second-order histogram regression
  * tree per class is fitted to (gradient, hessian) and leaves take the
  * Newton weight -G/(H+λ). Two growth policies reproduce the two
  * boosting baselines of the paper:
  *  - level-wise growth to `maxDepth`  → "XGBoost"-like ([[GBDT.xgboostLike]]);
  *  - leaf-wise growth to `maxLeaves` → "LightGBM"-like ([[GBDT.lightgbmLike]]).
  */
final case class GBDT(
    override val name: String,
    rounds: Int = 20,
    learningRate: Double = 0.2,
    leafWise: Boolean = false,
    maxDepth: Int = 5,
    maxLeaves: Int = 15,
    lambda: Double = 1.0,
    bins: Int = 32,
    minChildHessian: Double = 1e-3,
) extends Learner {

  override def fit(train: Vector[Point], seed: Long): Classifier = {
    require(train.nonEmpty, s"$name needs a non-empty training set")
    val labels = train.map(_.label).distinct.sorted.toArray
    if (labels.length == 1) return new ConstantModel(labels(0))

    val n = train.size
    val p = train.head.dim
    val k = labels.length
    val labIdx = labels.zipWithIndex.toMap
    val ys = train.iterator.map(pt => labIdx(pt.label)).toArray
    val xs = train.iterator.map(_.features).toArray

    // Per-feature candidate cut points (quantile-spaced midpoints) and the
    // binned feature matrix: binOf(f)(i) = number of cuts < x plus bound.
    val cuts: Array[Array[Double]] = Array.tabulate(p) { f =>
      val v = xs.map(_(f)).distinct.sorted
      if (v.length <= 1) Array.empty[Double]
      else if (v.length <= bins) v.sliding(2).map(w => (w(0) + w(1)) / 2).toArray
      else {
        val step = v.length.toDouble / bins
        (1 until bins).map { b =>
          val i = math.min(v.length - 1, math.max(1, math.round(b * step).toInt))
          (v(i - 1) + v(i)) / 2
        }.distinct.toArray
      }
    }
    val binOf: Array[Array[Int]] = Array.tabulate(p) { f =>
      val c = cuts(f)
      xs.map { row =>
        var lo = 0; var hi = c.length
        while (lo < hi) { val mid = (lo + hi) / 2; if (row(f) <= c(mid)) hi = mid else lo = mid + 1 }
        lo // bin in [0, cuts.length]; x <= cuts(b) iff bin <= b
      }
    }

    val scores = Array.fill(n, k)(0.0)
    val prob = new Array[Double](k)
    val g = new Array[Double](n)
    val h = new Array[Double](n)
    val allTrees = Vector.newBuilder[Array[RegNode]]

    var round = 0
    while (round < rounds) {
      val roundTrees = new Array[RegNode](k)
      // Softmax probabilities for this round, then one tree per class.
      val probs = Array.tabulate(n) { i =>
        val row = scores(i)
        val mx = row.max
        var s = 0.0; var c = 0
        while (c < k) { prob(c) = math.exp(row(c) - mx); s += prob(c); c += 1 }
        val out = new Array[Double](k)
        c = 0; while (c < k) { out(c) = prob(c) / s; c += 1 }
        out
      }
      var cls = 0
      while (cls < k) {
        var i = 0
        while (i < n) {
          val pi = probs(i)(cls)
          g(i) = pi - (if (ys(i) == cls) 1.0 else 0.0)
          h(i) = math.max(pi * (1.0 - pi), 1e-6)
          i += 1
        }
        val tree = GBDT.buildTree(binOf, cuts, g, h, (0 until n).toArray,
          leafWise, maxDepth, maxLeaves, lambda, bins, minChildHessian)
        roundTrees(cls) = tree
        i = 0
        while (i < n) { scores(i)(cls) += learningRate * GBDTModel.eval(tree, xs(i)); i += 1 }
        cls += 1
      }
      allTrees += roundTrees
      round += 1
    }
    new GBDTModel(labels, allTrees.result(), learningRate)
  }
}

object GBDT {
  /** Level-wise preset standing in for XGBoost. */
  def xgboostLike(rounds: Int = 20): GBDT =
    GBDT(name = "XGBoost", rounds = rounds, learningRate = 0.3, leafWise = false, maxDepth = 5)

  /** Leaf-wise preset standing in for LightGBM. */
  def lightgbmLike(rounds: Int = 20): GBDT =
    GBDT(name = "LightGBM", rounds = rounds, learningRate = 0.2, leafWise = true, maxLeaves = 15)

  private final case class Found(feature: Int, cutBin: Int, gain: Double)

  private def leafWeight(gs: Double, hs: Double, lambda: Double): Double = -gs / (hs + lambda)

  /** Best histogram split of `idx`, or None if no positive-gain split. */
  private def bestSplit(
      binOf: Array[Array[Int]], g: Array[Double], h: Array[Double], idx: Array[Int],
      bins: Int, lambda: Double, minH: Double): Option[Found] = {
    var gTot = 0.0; var hTot = 0.0
    idx.foreach { i => gTot += g(i); hTot += h(i) }
    val base = gTot * gTot / (hTot + lambda)
    var best: Option[Found] = None
    val hg = new Array[Double](bins + 1)
    val hh = new Array[Double](bins + 1)
    val hc = new Array[Int](bins + 1)
    var f = 0
    while (f < binOf.length) {
      java.util.Arrays.fill(hg, 0.0); java.util.Arrays.fill(hh, 0.0); java.util.Arrays.fill(hc, 0)
      var maxBin = 0
      idx.foreach { i =>
        val b = binOf(f)(i)
        hg(b) += g(i); hh(b) += h(i); hc(b) += 1
        if (b > maxBin) maxBin = b
      }
      var gl = 0.0; var hl = 0.0; var cl = 0
      var b = 0
      while (b < maxBin) { // split "bin <= b goes left"
        gl += hg(b); hl += hh(b); cl += hc(b)
        val hr = hTot - hl; val cr = idx.length - cl
        if (cl > 0 && cr > 0 && hl >= minH && hr >= minH) {
          val gr = gTot - gl
          val gain = gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - base
          if (gain > 1e-10 && best.forall(_.gain < gain)) best = Some(Found(f, b, gain))
        }
        b += 1
      }
      f += 1
    }
    best
  }

  private final class MNode(val idx: Array[Int]) {
    var split: Option[Found] = None
    var left: MNode = _
    var right: MNode = _
  }

  /** Grow one regression tree over the binned matrix. */
  private[ml] def buildTree(
      binOf: Array[Array[Int]], cuts: Array[Array[Double]],
      g: Array[Double], h: Array[Double], rootIdx: Array[Int],
      leafWise: Boolean, maxDepth: Int, maxLeaves: Int,
      lambda: Double, bins: Int, minH: Double): RegNode = {

    def toLeaf(idx: Array[Int]): RegLeaf = {
      var gs = 0.0; var hs = 0.0
      idx.foreach { i => gs += g(i); hs += h(i) }
      RegLeaf(leafWeight(gs, hs, lambda))
    }

    if (leafWise) {
      val root = new MNode(rootIdx)
      root.split = bestSplit(binOf, g, h, rootIdx, bins, lambda, minH)
      implicit val ord: Ordering[(Double, Int, MNode)] = Ordering.by(_._1)
      val pq = mutable.PriorityQueue.empty[(Double, Int, MNode)]
      var serial = 0
      root.split.foreach(s => pq.enqueue((s.gain, { serial += 1; -serial }, root)))
      var leaves = 1
      while (leaves < maxLeaves && pq.nonEmpty) {
        val (_, _, node) = pq.dequeue()
        val s = node.split.get
        val (li, ri) = node.idx.partition(i => binOf(s.feature)(i) <= s.cutBin)
        node.left = new MNode(li); node.right = new MNode(ri)
        node.left.split = bestSplit(binOf, g, h, li, bins, lambda, minH)
        node.right.split = bestSplit(binOf, g, h, ri, bins, lambda, minH)
        node.left.split.foreach(x => pq.enqueue((x.gain, { serial += 1; -serial }, node.left)))
        node.right.split.foreach(x => pq.enqueue((x.gain, { serial += 1; -serial }, node.right)))
        leaves += 1
      }
      def freeze(n: MNode): RegNode =
        if (n.left == null) toLeaf(n.idx)
        else {
          val s = n.split.get
          RegSplit(s.feature, cuts(s.feature)(s.cutBin), freeze(n.left), freeze(n.right))
        }
      freeze(root)
    } else {
      def grow(idx: Array[Int], depth: Int): RegNode =
        if (depth >= maxDepth) toLeaf(idx)
        else bestSplit(binOf, g, h, idx, bins, lambda, minH) match {
          case None => toLeaf(idx)
          case Some(s) =>
            val (li, ri) = idx.partition(i => binOf(s.feature)(i) <= s.cutBin)
            RegSplit(s.feature, cuts(s.feature)(s.cutBin), grow(li, depth + 1), grow(ri, depth + 1))
        }
      grow(rootIdx, 0)
    }
  }

}

/** Fitted GBDT: per-round, per-class trees summed into softmax scores. */
final class GBDTModel(labels: Array[Int], trees: Vector[Array[RegNode]], lr: Double)
    extends Classifier {
  override def predict(x: Array[Double]): Int = {
    val k = labels.length
    val scores = new Array[Double](k)
    trees.foreach { round =>
      var c = 0
      while (c < k) { scores(c) += lr * GBDTModel.eval(round(c), x); c += 1 }
    }
    var best = 0; var c = 1
    while (c < k) { if (scores(c) > scores(best)) best = c; c += 1 }
    labels(best)
  }
}

object GBDTModel {
  /** Evaluate a regression tree on a raw feature vector. */
  def eval(node: RegNode, x: Array[Double]): Double = node match {
    case RegLeaf(w)             => w
    case RegSplit(f, thr, l, r) => if (x(f) <= thr) eval(l, x) else eval(r, x)
  }
}

/** Degenerate model for single-class training sets. */
final class ConstantModel(label: Int) extends Classifier {
  override def predict(x: Array[Double]): Int = label
}
