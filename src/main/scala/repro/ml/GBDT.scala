package repro.ml

import repro.core.{Parallel, Point}
import scala.collection.mutable

/** Gradient-boosted decision trees for multi-class classification.
  *
  * Softmax objective; per round, one second-order histogram regression
  * tree per class is fitted to (gradient, hessian) and leaves take the
  * Newton weight -G/(H+λ). Trees grow best first under two caps, as in
  * LightGBM: a node is split only while its depth is below `maxDepth`, and
  * a tree stops at `maxLeaves` leaves. The depth cap alone gives XGBoost's
  * level-wise trees ([[GBDT.xgboostLike]]), the leaf cap alone LightGBM's
  * leaf-wise trees ([[GBDT.lightgbmLike]]).
  */
final case class GBDT(
    override val name: String,
    rounds: Int = 20,
    learningRate: Double = 0.2,
    maxDepth: Int = 5,
    maxLeaves: Int = Int.MaxValue,
) extends Learner {

  override def fit(train: Vector[Point], seed: Long): Classifier = {
    val ts = TrainSet(train, name)
    import ts.{labels, ys}
    if (labels.length == 1) return new ConstantModel(labels(0))

    val n = ys.length; val k = labels.length

    // Per-feature candidate cut points (quantile-spaced midpoints of the
    // distinct values) and the binned feature matrix: binOf(f)(i) is the
    // first b with x <= cuts(b), or cuts.length, so x <= cuts(b) iff bin <= b.
    val cuts: Array[Array[Double]] = ts.values.map { v =>
      if (v.length <= 1) Array.empty[Double]
      else if (v.length <= GBDT.Bins) v.sliding(2).map(w => (w(0) + w(1)) / 2).toArray
      else {
        val step = v.length.toDouble / GBDT.Bins
        (1 until GBDT.Bins).map { b =>
          val i = math.min(v.length - 1, math.max(1, math.round(b * step).toInt))
          (v(i - 1) + v(i)) / 2
        }.distinct.toArray
      }
    }
    val binOf: Array[Array[Int]] = Array.tabulate(cuts.length) { f =>
      // The bin of each distinct value, by a merge walk: both are ascending.
      val v = ts.values(f); val c = cuts(f)
      val binAt = new Array[Int](v.length)
      var d = 0; var b = 0
      while (d < v.length) { while (b < c.length && !(v(d) <= c(b))) b += 1; binAt(d) = b; d += 1 }
      TrainSet.gather(binAt, ts.code(f))
    }

    // Row-major n x k scores and softmax probabilities, reused every round.
    val scores, probs = new Array[Double](n * k)
    // One grower per class, each with its own gradients, weights and buffers,
    // so a round's k trees grow concurrently from the same softmax.
    val growers = Array.fill(k)(new GBDT.Grower(binOf, cuts, n, maxDepth, maxLeaves))
    val allTrees = Vector.newBuilder[Array[TreeNode]]

    var round = 0
    while (round < rounds) {
      val roundTrees = new Array[TreeNode](k)
      // Softmax probabilities for this round, then one tree per class.
      var i = 0
      while (i < n) {
        val o = i * k
        var mx = scores(o); var c = 1
        while (c < k) { mx = math.max(mx, scores(o + c)); c += 1 }
        var s = 0.0; c = 0
        while (c < k) { probs(o + c) = math.exp(scores(o + c) - mx); s += probs(o + c); c += 1 }
        c = 0; while (c < k) { probs(o + c) /= s; c += 1 }
        i += 1
      }
      Parallel.forEach(k) { cls =>
        val grower = growers(cls); import grower.{g, h}
        var i = 0
        while (i < n) {
          val pi = probs(i * k + cls)
          g(i) = pi - (if (ys(i) == cls) 1.0 else 0.0)
          h(i) = math.max(pi * (1.0 - pi), 1e-6)
          i += 1
        }
        roundTrees(cls) = grower.grow()
      }
      var cls = 0
      while (cls < k) {
        val weight = growers(cls).weight
        i = 0
        while (i < n) { scores(i * k + cls) += learningRate * weight(i); i += 1 }
        cls += 1
      }
      allTrees += roundTrees
      round += 1
    }
    new GBDTModel(labels, allTrees.result(), learningRate)
  }
}

object GBDT {
  /** Depth-capped (level-wise) preset standing in for XGBoost. */
  def xgboostLike(rounds: Int = 20): GBDT =
    GBDT(name = "XGBoost", rounds = rounds, learningRate = 0.3, maxDepth = 5)

  /** Leaf-capped (leaf-wise) preset standing in for LightGBM; no depth cap,
    * like LightGBM's `max_depth = -1`.
    */
  def lightgbmLike(rounds: Int = 20): GBDT =
    GBDT(name = "LightGBM", rounds = rounds, learningRate = 0.2, maxDepth = Int.MaxValue, maxLeaves = 15)

  private val Lambda = 1.0 // L2 penalty on leaf weights
  private val Bins = 32 // histogram bins per feature
  private val MinChildHessian = 1e-3 // least hessian sum of a child

  /** A tree node under growth: its range `lo until hi` of the grower's rows, and its best split. */
  private final class MNode(val lo: Int, val hi: Int, val depth: Int) {
    var feature = -1; var cutBin = 0; var gain = 0.0
    var left, right: MNode = _
  }

  /** Open nodes by gain, in the total order of the implicit `Ordering[Double]`, without boxing. */
  private object ByGain extends Ordering[MNode] {
    def compare(a: MNode, b: MNode): Int = java.lang.Double.compare(a.gain, b.gain)
  }

  /** Grows one class's regression trees on the binned matrix (read only)
    * and its own `g` and `h` over `n` rows, best first: the open node of
    * largest split gain is split next. A node is open when its depth is
    * below `maxDepth` and it has a positive-gain split; a tree stops at
    * `maxLeaves` leaves. Each row's leaf weight goes to `weight`; the row
    * reaches that leaf through the returned tree too, since `bin <= cutBin`
    * holds exactly when `x <= cuts(cutBin)`. Every buffer it writes is its
    * own, so growers of different classes may grow at the same time.
    */
  private final class Grower(
      binOf: Array[Array[Int]], cuts: Array[Array[Double]], n: Int,
      maxDepth: Int, maxLeaves: Int) {
    val g, h, weight = new Array[Double](n)
    private val hg, hh = new Array[Double](Bins + 1)
    private val hc = new Array[Int](Bins + 1)
    // The tree's rows; a node is a range of them, in the root's order as the
    // partition is stable, so its float sums add in one order however it grows.
    private val rows, scratch = new Array[Int](n)
    // A node's gradients and hessians in row order, read once per feature.
    private val gn, hn = new Array[Double](n)

    /** Records `node`'s best histogram split (a later candidate wins only
      * with a strictly larger gain); false if none has positive gain. */
    private def bestSplit(node: MNode): Boolean = {
      val lo = node.lo; val m = node.hi - lo
      var gTot = 0.0; var hTot = 0.0
      var t = 0
      while (t < m) { val i = rows(lo + t); gn(t) = g(i); hn(t) = h(i); gTot += gn(t); hTot += hn(t); t += 1 }
      val base = gTot * gTot / (hTot + Lambda)
      var found = false
      var f = 0
      while (f < binOf.length) {
        val bin = binOf(f)
        java.util.Arrays.fill(hg, 0.0); java.util.Arrays.fill(hh, 0.0); java.util.Arrays.fill(hc, 0)
        var maxBin = 0
        t = 0
        while (t < m) {
          val b = bin(rows(lo + t))
          hg(b) += gn(t); hh(b) += hn(t); hc(b) += 1
          if (b > maxBin) maxBin = b
          t += 1
        }
        var gl = 0.0; var hl = 0.0; var cl = 0
        var b = 0
        while (b < maxBin) { // split "bin <= b goes left"
          gl += hg(b); hl += hh(b); cl += hc(b)
          val hr = hTot - hl; val cr = m - cl
          if (cl > 0 && cr > 0 && hl >= MinChildHessian && hr >= MinChildHessian) {
            val gr = gTot - gl
            val gain = gl * gl / (hl + Lambda) + gr * gr / (hr + Lambda) - base
            if (gain > 1e-10 && (!found || node.gain < gain)) {
              found = true; node.feature = f; node.cutBin = b; node.gain = gain
            }
          }
          b += 1
        }
        f += 1
      }
      found
    }

    private def freeze(node: MNode): TreeNode =
      if (node.left == null) {
        var gs = 0.0; var hs = 0.0
        var t = node.lo
        while (t < node.hi) { gs += g(rows(t)); hs += h(rows(t)); t += 1 }
        val w = -gs / (hs + Lambda) // Newton weight
        t = node.lo
        while (t < node.hi) { weight(rows(t)) = w; t += 1 }
        Leaf(w)
      } else Split(node.feature, cuts(node.feature)(node.cutBin), freeze(node.left), freeze(node.right))

    def grow(): TreeNode = {
      val open = mutable.PriorityQueue.empty[MNode](ByGain)
      def offer(node: MNode): Unit = if (node.depth < maxDepth && bestSplit(node)) open += node
      var t = 0
      while (t < rows.length) { rows(t) = t; t += 1 }
      val root = new MNode(0, rows.length, 0)
      offer(root)
      var leaves = 1
      while (leaves < maxLeaves && open.nonEmpty) {
        val node = open.dequeue()
        val bin = binOf(node.feature)
        val mid = TreeNode.partition(rows, node.lo, node.hi, scratch, i => bin(i) <= node.cutBin)
        node.left = new MNode(node.lo, mid, node.depth + 1); node.right = new MNode(mid, node.hi, node.depth + 1)
        offer(node.left); offer(node.right)
        leaves += 1
      }
      freeze(root)
    }
  }
}

/** Fitted GBDT: per-round, per-class trees summed into softmax scores. */
final class GBDTModel(labels: Array[Int], private[ml] val trees: Vector[Array[TreeNode]], lr: Double)
    extends Classifier {
  override def predict(x: Array[Double]): Int = {
    val k = labels.length
    val scores = new Array[Double](k)
    trees.foreach { round =>
      var c = 0
      while (c < k) { scores(c) += lr * TreeNode.eval(round(c), x); c += 1 }
    }
    var best = 0; var c = 1
    while (c < k) { if (scores(c) > scores(best)) best = c; c += 1 }
    labels(best)
  }
}

/** Degenerate model for single-class training sets. */
final class ConstantModel(label: Int) extends Classifier {
  override def predict(x: Array[Double]): Int = label
}
