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

  /** Moves the rows of `rows(lo until hi)` where `left` holds to the front
    * of that range and the others after them, each in their old order,
    * through `scratch` (at least `hi - lo` long); returns where the others start.
    */
  private[ml] def partition(rows: Array[Int], lo: Int, hi: Int, scratch: Array[Int], left: Int => Boolean): Int = {
    var a = lo; var r = 0; var t = lo
    while (t < hi) { val i = rows(t); if (left(i)) { rows(a) = i; a += 1 } else { scratch(r) = i; r += 1 }; t += 1 }
    System.arraycopy(scratch, 0, rows, a, r)
    a
  }
}

/** CART decision tree: gini impurity, threshold splits on continuous
  * features, majority leaves. `featuresPerSplit > 0` evaluates a random
  * feature subset at every split (used by [[RandomForest]]); 0 means all.
  */
final case class DecisionTree(maxDepth: Int = 25, featuresPerSplit: Int = 0) extends Learner {
  override val name = "DT"

  override def fit(train: Vector[Point], seed: Long): Classifier =
    DecisionTree.build(TrainSet(train, name), Array.range(0, train.size), maxDepth, featuresPerSplit, new Random(seed))
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

/** A training set as DT, RF and GBDT read it: each row's class `ys(i)` as
  * an index into the sorted distinct `labels`, and per feature `f` the
  * distinct values `values(f)` with row `i`'s code `code(f)(i)` among them
  * ([[GBABS.encode]]), so row `i` holds `values(f)(code(f)(i))`.
  */
private[ml] final class TrainSet private (
    val ys: Array[Int], val labels: Array[Int], val values: Array[Array[Double]], val code: Array[Array[Int]])

private[ml] object TrainSet {
  /** Rejects an empty `train`, then a bad feature array ([[Point.checkFeatures]]). */
  def check(train: Vector[Point], learner: String): Unit = {
    require(train.nonEmpty, s"$learner needs a non-empty training set")
    Point.checkFeatures(train)
  }

  /** Checks `train` for `learner`, then encodes its labels and each feature column once. */
  def apply(train: Vector[Point], learner: String): TrainSet = {
    check(train, learner)
    val pts = train.toArray
    val col = new Array[Double](pts.length)
    val scratch = new GBABS.RadixScratch(pts.length)
    def encoded(at: Int => Double) = {
      var i = 0
      while (i < col.length) { col(i) = at(i); i += 1 }
      GBABS.encode(col, scratch)
    }
    val (labels, ys) = encoded(pts(_).label)
    val cols = Array.tabulate(pts(0).dim)(f => encoded(pts(_).features(f)))
    new TrainSet(ys, labels.map(_.toInt), cols.map(_._1), cols.map(_._2))
  }

  /** `src.map(a)`, without boxing. */
  def gather(a: Array[Int], src: Array[Int]): Array[Int] = {
    val out = new Array[Int](src.length)
    var j = 0
    while (j < out.length) { out(j) = a(src(j)); j += 1 }
    out
  }
}

object DecisionTree {

  /** Grows a CART tree on the rows of `ts` that `rows` lists, a row once per
    * draw; a node is a range of `rows`, which [[TreeNode.partition]]
    * reorders in place. The row order within a range cannot change a
    * split: a node sorts its packed `(code << 32 | row)` keys fully, a
    * candidate lies between distinct values, and class counts are exact.
    * Candidates and the partition compare the values, not the codes: IEEE
    * `<` and `<=` hold -0.0 and 0.0 equal, where their codes differ.
    */
  private[ml] def build(ts: TrainSet, rows: Array[Int], maxDepth: Int, featuresPerSplit: Int, rng: Random): TreeModel = {
    import ts.{code, labels, values, ys}
    val p = code.length
    val k = labels.length
    val keys = new Array[Long](rows.length)
    val scratch = new Array[Int](rows.length)
    // The features a node searches, in order: its first `searched` entries.
    val feats = new Array[Int](p)
    // The class counts of the node being grown, then of its split sides.
    val cnt, cntL, cntR = new Array[Int](k)
    // Best split found so far at the node being searched.
    var bestF = -1; var bestThr = 0.0; var bestImp = Double.PositiveInfinity

    /** Weighted gini search of feature `f` over `rows(lo until hi)`
      * (sum-of-squares update); a candidate replaces the best split only
      * if strictly better. */
    def search(lo: Int, hi: Int, f: Int): Unit = {
      val m = hi - lo
      val cf = code(f); val vf = values(f)
      java.util.Arrays.fill(cntL, 0); System.arraycopy(cnt, 0, cntR, 0, k)
      var t = 0
      while (t < m) { val i = rows(lo + t); keys(t) = (cf(i).toLong << 32) | i; t += 1 }
      java.util.Arrays.sort(keys, 0, m)
      var sqL = 0.0; var sqR = 0.0
      var c = 0
      while (c < k) { sqR += cntR(c).toDouble * cntR(c); c += 1 }
      t = 0
      while (t < m - 1) {
        val cls = ys(keys(t).toInt)
        sqL += 2.0 * cntL(cls) + 1; cntL(cls) += 1
        sqR -= 2.0 * cntR(cls) - 1; cntR(cls) -= 1
        val v = vf((keys(t) >>> 32).toInt); val vNext = vf((keys(t + 1) >>> 32).toInt)
        if (v < vNext) {
          val nL = t + 1; val nR = m - nL
          // minimize  nL*(1 - sqL/nL^2) + nR*(1 - sqR/nR^2)  =  m - sqL/nL - sqR/nR
          val imp = -sqL / nL - sqR / nR
          if (imp < bestImp) { bestImp = imp; bestF = f; bestThr = v + (vNext - v) / 2 }
        }
        t += 1
      }
    }

    def grow(lo: Int, hi: Int, depth: Int): TreeNode = {
      java.util.Arrays.fill(cnt, 0)
      var t = lo
      while (t < hi) { cnt(ys(rows(t))) += 1; t += 1 }
      var best = 0; var c = 1
      while (c < k) { if (cnt(c) > cnt(best)) best = c; c += 1 }
      val label = labels(best).toDouble
      if (depth >= maxDepth || cnt(best) == hi - lo) Leaf(label)
      else {
        t = 0
        while (t < p) { feats(t) = t; t += 1 }
        val searched =
          if (featuresPerSplit <= 0 || featuresPerSplit >= p) p
          else {
            // Random.shuffle's draws in its order: for n = p down to 2, swap n - 1 with nextInt(n).
            var n = p
            while (n >= 2) { val j = rng.nextInt(n); val e = feats(n - 1); feats(n - 1) = feats(j); feats(j) = e; n -= 1 }
            featuresPerSplit
          }
        bestF = -1; bestImp = Double.PositiveInfinity
        t = 0
        while (t < searched) { search(lo, hi, feats(t)); t += 1 }
        val (f, thr) = (bestF, bestThr)
        if (f < 0) Leaf(label)
        else {
          val cf = code(f); val vf = values(f)
          val mid = TreeNode.partition(rows, lo, hi, scratch, i => vf(cf(i)) <= thr)
          if (mid == lo || mid == hi) Leaf(label)
          else Split(f, thr, grow(lo, mid, depth + 1), grow(mid, hi, depth + 1))
        }
      }
    }

    new TreeModel(grow(0, rows.length, 0))
  }
}
