// The Wilcoxon signed-rank test before the one exact path: a BigInteger map DP
// for n <= 25 and a normal approximation above. Kept verbatim, object name aside,
// as the reference WilcoxonSpec compares the current test against.
package repro.stats

/** Wilcoxon signed-rank test (two-sided), as used for the paper's Table III.
  *
  * Zero differences are dropped; ties receive mean ranks. For n <= 25 the
  * p-value is exact: the null distribution of W+ is enumerated by dynamic
  * programming over the (doubled, hence integral) ranks. Larger n falls
  * back to the normal approximation with tie correction.
  */
object WilcoxonReference {

  /** @param w         min(W+, W-) test statistic
    * @param wPlus     sum of ranks of positive differences
    * @param n         number of non-zero differences
    * @param pTwoSided two-sided p-value
    */
  final case class Result(w: Double, wPlus: Double, n: Int, pTwoSided: Double)

  /** Paired test of `a` vs `b` (same length, >= 1 non-zero difference). */
  def signedRank(a: Seq[Double], b: Seq[Double]): Result = {
    require(a.size == b.size && a.nonEmpty, "paired samples must be non-empty and equal length")
    val diffs = a.zip(b).map { case (x, y) => x - y }.filter(_ != 0.0)
    require(diffs.nonEmpty, "all differences are zero — test undefined")
    val n = diffs.size

    // Mean ranks of |d| (ties averaged), doubled to stay integral.
    val sorted = diffs.map(math.abs).zipWithIndex.sortBy(_._1)
    val ranks2 = new Array[Long](n) // 2 * rank, indexed by original position
    var i = 0
    while (i < n) {
      var j = i
      while (j < n - 1 && sorted(j + 1)._1 == sorted(i)._1) j += 1
      val meanRank2 = (i + 1).toLong + (j + 1).toLong // 2 * mean of ranks i+1..j+1
      (i to j).foreach(k => ranks2(sorted(k)._2) = meanRank2)
      i = j + 1
    }

    var wPlus2 = 0L
    diffs.indices.foreach(k => if (diffs(k) > 0) wPlus2 += ranks2(k))
    val total2 = ranks2.sum
    val wMinus2 = total2 - wPlus2
    val w2 = math.min(wPlus2, wMinus2)

    val p =
      if (n <= 25) {
        // #{sign assignments with W+*2 <= w2} / 2^n, doubled and capped.
        val counts = distribution(ranks2)
        var le = java.math.BigInteger.ZERO
        var s = 0
        while (s <= w2) { le = le.add(counts.getOrElse(s.toLong, java.math.BigInteger.ZERO)); s += 1 }
        val totalAssign = java.math.BigInteger.ONE.shiftLeft(n)
        val pOne = new java.math.BigDecimal(le)
          .divide(new java.math.BigDecimal(totalAssign), java.math.MathContext.DECIMAL64)
          .doubleValue()
        math.min(1.0, 2.0 * pOne)
      } else {
        val nn = n.toDouble
        val mean = nn * (nn + 1) / 4.0
        // Tie correction on the variance.
        val tieGroups = diffs.map(math.abs).groupBy(identity).values.map(_.size.toDouble)
        val correction = tieGroups.map(t => t * t * t - t).sum / 48.0
        val sd = math.sqrt(nn * (nn + 1) * (2 * nn + 1) / 24.0 - correction)
        val z = ((w2 / 2.0) - mean + 0.5) / sd // continuity corrected
        math.min(1.0, 2.0 * normalCdf(z))
      }
    Result(w2 / 2.0, wPlus2 / 2.0, n, p)
  }

  /** Exact null distribution of 2*W+ over all sign assignments. */
  private def distribution(ranks2: Array[Long]): Map[Long, java.math.BigInteger] = {
    var dp = Map(0L -> java.math.BigInteger.ONE)
    ranks2.foreach { r =>
      val next = scala.collection.mutable.Map.empty[Long, java.math.BigInteger]
      dp.foreach { case (s, c) =>
        next.updateWith(s)(v => Some(v.getOrElse(java.math.BigInteger.ZERO).add(c)))
        next.updateWith(s + r)(v => Some(v.getOrElse(java.math.BigInteger.ZERO).add(c)))
      }
      dp = next.toMap
    }
    dp
  }

  /** Standard normal CDF via erfc (Abramowitz–Stegun 7.1.26 rational fit). */
  private[stats] def normalCdf(z: Double): Double = {
    val x = z / math.sqrt(2.0)
    val t = 1.0 / (1.0 + 0.3275911 * math.abs(x))
    val poly = t * (0.254829592 + t * (-0.284496736 + t * (1.421413741 +
      t * (-1.453152027 + t * 1.061405429))))
    val erf = 1.0 - poly * math.exp(-x * x)
    val signed = if (x >= 0) erf else -erf
    0.5 * (1.0 + signed)
  }
}
