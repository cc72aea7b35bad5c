package repro.ml

import repro.core.{GBABS, Point}
import scala.util.Random

/** Binary tree node of CART, RF and the boosting ensemble. A leaf holds a
  * GBDT weight, or a CART class label that `.toInt` gives back exactly.
  */
sealed trait TreeNode extends Serializable
final case class Leaf(value: Double) extends TreeNode
final case class Split(feature: Int, threshold: Double, left: TreeNode, right: TreeNode)
    extends TreeNode

object TreeNode {
  /** The value of the leaf `x` reaches: `x(feature) <= threshold` goes left. */
  @annotation.tailrec
  def eval(node: TreeNode, x: Array[Double]): Double = node match {
    case Leaf(v)             => v
    case Split(f, thr, l, r) => eval(if (x(f) <= thr) l else r, x)
  }

  /** The rows of `idx` where `left` holds, and the others, each in `idx` order. */
  private[ml] def partition(idx: Array[Int], left: Int => Boolean): (Array[Int], Array[Int]) = {
    val l = new Array[Int](idx.length); val r = new Array[Int](idx.length)
    var a = 0; var t = 0
    while (t < idx.length) { val i = idx(t); if (left(i)) { l(a) = i; a += 1 } else r(t - a) = i; t += 1 }
    (java.util.Arrays.copyOf(l, a), java.util.Arrays.copyOf(r, idx.length - a))
  }
}

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
    Point.checkFeatures(train)
    DecisionTree.build(DecisionTree.trainSet(train), maxDepth, minSamplesSplit, featuresPerSplit, new Random(seed))
  }
}

final class TreeModel(val root: TreeNode) extends Classifier {
  override def predict(x: Array[Double]): Int = TreeNode.eval(root, x).toInt

  /** Number of decision nodes + leaves — exposed for tests. */
  def size: Int = {
    def go(n: TreeNode): Int = n match {
      case Leaf(_)          => 1
      case Split(_, _, a, b) => 1 + go(a) + go(b)
    }
    go(root)
  }
}

/** Training rows, each row's class as an index into the sorted distinct
  * `labels`, and `rank(f)(i)`: the [[GBABS.ranks]] of feature `f` at row `i`.
  */
private[ml] final case class TrainSet(
    xs: Array[Array[Double]], ys: Array[Int], labels: Array[Int], rank: Array[Array[Int]]) {
  /** The bootstrap sample whose row `j` is row `src(j)`; a class it lacks only adds zero counts. */
  def bootstrap(src: Array[Int]): TrainSet =
    TrainSet(src.map(xs(_)), src.map(ys(_)), labels, rank.map(r => Array.tabulate(src.length)(j => r(src(j)))))
}

object DecisionTree {

  private[ml] def trainSet(train: Vector[Point]): TrainSet = {
    val labels = train.map(_.label).distinct.sorted.toArray
    val labIdx = labels.zipWithIndex.toMap
    val xs = train.iterator.map(_.features).toArray
    TrainSet(xs, train.iterator.map(pt => labIdx(pt.label)).toArray, labels,
      Array.tabulate(xs(0).length)(f => GBABS.ranks(xs.map(_(f)))))
  }

  /** Grows a CART tree on `ts`. A node's rows `idx` are ascending (the
    * root's are, and [[TreeNode.partition]] keeps order), so sorting its
    * packed `(rank << 32 | row)` keys orders them by value with ties by
    * row, as a stable sort of `idx` by value would.
    */
  private[ml] def build(
      ts: TrainSet, maxDepth: Int, minSamplesSplit: Int,
      featuresPerSplit: Int, rng: Random): TreeModel = {
    import ts.{labels, rank, xs, ys}
    val p = rank.length
    val k = labels.length
    val keys = new Array[Long](xs.length)
    val cntL, cntR = new Array[Int](k)
    // Best split found so far at the node being searched.
    var bestF = -1; var bestThr = 0.0; var bestImp = Double.PositiveInfinity

    def majority(idx: Array[Int]): Leaf = {
      val cnt = new Array[Int](k)
      idx.foreach(i => cnt(ys(i)) += 1)
      var best = 0; var i = 1
      while (i < k) { if (cnt(i) > cnt(best)) best = i; i += 1 }
      Leaf(labels(best).toDouble)
    }

    def pure(idx: Array[Int]): Boolean = {
      val first = ys(idx(0)); idx.forall(i => ys(i) == first)
    }

    /** Weighted gini search of feature `f` over `idx` (sum-of-squares update);
      * a candidate replaces the best split only if strictly better. */
    def search(idx: Array[Int], f: Int): Unit = {
      val m = idx.length
      java.util.Arrays.fill(cntL, 0); java.util.Arrays.fill(cntR, 0)
      var t = 0
      while (t < m) { val i = idx(t); keys(t) = (rank(f)(i).toLong << 32) | i; cntR(ys(i)) += 1; t += 1 }
      java.util.Arrays.sort(keys, 0, m)
      var sqL = 0.0; var sqR = 0.0
      var c = 0
      while (c < k) { sqR += cntR(c).toDouble * cntR(c); c += 1 }
      t = 0
      while (t < m - 1) {
        val row = keys(t).toInt
        val cls = ys(row)
        sqL += 2.0 * cntL(cls) + 1; cntL(cls) += 1
        sqR -= 2.0 * cntR(cls) - 1; cntR(cls) -= 1
        val v = xs(row)(f); val vNext = xs(keys(t + 1).toInt)(f)
        if (v < vNext) {
          val nL = t + 1; val nR = m - nL
          // minimize  nL*(1 - sqL/nL^2) + nR*(1 - sqR/nR^2)  =  m - sqL/nL - sqR/nR
          val imp = -sqL / nL - sqR / nR
          if (imp < bestImp) { bestImp = imp; bestF = f; bestThr = v + (vNext - v) / 2 }
        }
        t += 1
      }
    }

    def grow(idx: Array[Int], depth: Int): TreeNode = {
      if (idx.length < minSamplesSplit || depth >= maxDepth || pure(idx)) majority(idx)
      else {
        val feats: Seq[Int] =
          if (featuresPerSplit <= 0 || featuresPerSplit >= p) 0 until p
          else rng.shuffle((0 until p).toVector).take(featuresPerSplit)
        bestF = -1; bestImp = Double.PositiveInfinity
        feats.foreach(search(idx, _))
        val (f, thr) = (bestF, bestThr)
        if (f < 0) majority(idx)
        else {
          val (l, r) = TreeNode.partition(idx, i => xs(i)(f) <= thr)
          if (l.isEmpty || r.isEmpty) majority(idx)
          else Split(f, thr, grow(l, depth + 1), grow(r, depth + 1))
        }
      }
    }

    new TreeModel(grow(Array.range(0, xs.length), 0))
  }
}
