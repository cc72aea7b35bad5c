package repro.stats

/** Wilcoxon signed-rank test (two-sided), as used for the paper's Table III.
  *
  * Zero differences are dropped; ties receive mean ranks. The p-value is
  * exact for every n: the null distribution of W+ over the 2^n sign
  * assignments is counted over the doubled (hence integral) ranks.
  */
object Wilcoxon {

  /** @param w         min(W+, W-) test statistic
    * @param wPlus     sum of ranks of positive differences
    * @param n         number of non-zero differences
    * @param pTwoSided two-sided p-value
    */
  final case class Result(w: Double, wPlus: Double, n: Int, pTwoSided: Double)

  /** Ascending 1-based ranks of `xs`, indexed like `xs`; values equal under
    * `Double.compare` share the mean of the ranks they span.
    */
  def ranks(xs: Array[Double]): Array[Double] = {
    val order = xs.indices.sortBy(xs(_))
    val r = new Array[Double](xs.length)
    var i = 0
    while (i < order.length) {
      var j = i
      while (j + 1 < order.length && java.lang.Double.compare(xs(order(j + 1)), xs(order(i))) == 0) j += 1
      val meanRank = (i + j + 2) / 2.0
      var t = i
      while (t <= j) { r(order(t)) = meanRank; t += 1 }
      i = j + 1
    }
    r
  }

  /** Paired test of `a` vs `b` (same length, >= 1 non-zero difference). */
  def signedRank(a: Seq[Double], b: Seq[Double]): Result = {
    require(a.size == b.size && a.nonEmpty, "paired samples must be non-empty and equal length")
    val diffs = a.zip(b).map { case (x, y) => x - y }.filter(_ != 0.0).toArray
    require(diffs.nonEmpty, "all differences are zero — test undefined")
    val n = diffs.length

    // Mean ranks of |d|, doubled to stay integral.
    val ranks2 = ranks(diffs.map(math.abs)).map(r => (2 * r).toInt)
    val total2 = ranks2.sum
    var wPlus2 = 0; var k = 0
    while (k < n) { if (diffs(k) > 0) wPlus2 += ranks2(k); k += 1 }
    val w2 = math.min(wPlus2, total2 - wPlus2)

    // counts(s): sign assignments with 2W+ = s, adding one rank at a time.
    val counts = new Array[Double](total2 + 1)
    counts(0) = 1.0
    var reach = 0
    ranks2.foreach { r2 =>
      reach += r2
      var s = reach
      while (s >= r2) { counts(s) += counts(s - r2); s -= 1 }
    }
    val le = counts.iterator.take(w2 + 1).sum
    Result(w2 / 2.0, wPlus2 / 2.0, n, math.min(1.0, 2.0 * le / math.pow(2, n)))
  }
}
