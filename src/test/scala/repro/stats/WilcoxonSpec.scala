package repro.stats

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import repro.SparkSpec

class WilcoxonSpec extends SparkSpec {

  private def check(name: String, prop: Prop, tests: Int): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(20261019L), prop)
    assert(res.passed, s"$name: ${Pretty.pretty(res)}")
  }

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  /** Half-integer values from 0 to 3: few distinct magnitudes, so ties are common. */
  private val quantized: Gen[Double] = Gen.choose(0, 6).map(_ / 2.0)

  /** 1 to 25 pairs with at least one non-zero difference; about a third of
    * the pairs are equal, so zero differences are common too.
    */
  private val pairs: Gen[(Vector[Double], Vector[Double])] =
    Gen.choose(1, 25).flatMap { n =>
      Gen.listOfN(n, for {
        a <- quantized
        b <- Gen.frequency(1 -> Gen.const(a), 2 -> quantized)
      } yield (a, b))
    }.map(_.toVector.unzip).suchThat { case (a, b) => a != b }

  test("property: equals the reference's n, w and W+, and its p to 1e-15 (bit for bit up to n = 16)") {
    check("reference", Prop.forAllNoShrink(pairs) { case (a, b) =>
      val got = Wilcoxon.signedRank(a, b)
      val want = WilcoxonReference.signedRank(a, b)
      val p =
        if (want.n <= 16) bits(got.pTwoSided) == bits(want.pTwoSided)
        else math.abs(got.pTwoSided - want.pTwoSided) <= 1e-15 * want.pTwoSided
      Prop(got.n == want.n && got.w == want.w && got.wPlus == want.wPlus && p) :| s"got $got, want $want"
    }, 2000)
  }

  test("property: ranks of negated values equal Fig 9(a)'s former groupBy ranking, ties included") {
    val scores = Gen.choose(1, 9).flatMap(n => Gen.listOfN(n, Gen.oneOf(0.0, 0.25, 0.5, 0.75, 1.0))).map(_.toVector)
    check("ranks", Prop.forAllNoShrink(scores) { gs =>
      val ms = gs.zipWithIndex.map { case (g, i) => s"m$i" -> g }
      // The former gmeanRanking expression: rank by descending G-mean; ties share the mean rank.
      val sorted = ms.sortBy { case (m, g) => (-g, m) }
      val want = sorted.zipWithIndex.groupBy(_._1._2).flatMap { case (_, grp) =>
        val meanRank = grp.map(_._2 + 1.0).sum / grp.size
        grp.map { case ((m, _), _) => m -> meanRank }
      }
      val got = ms.map(_._1).zip(Wilcoxon.ranks(gs.map(-_).toArray)).toMap
      got.keySet == want.keySet && got.forall { case (m, r) => bits(r) == bits(want(m)) }
    }, 500)
  }

  test("n=13, all differences positive: exact p matches the paper's 0.000244") {
    val a = (1 to 13).map(i => 1.0 + i * 0.01)
    val b = (1 to 13).map(_ => 1.0)
    val r = Wilcoxon.signedRank(a, b)
    assert(r.w === 0.0)
    assert(math.abs(r.pTwoSided - 2.0 / 8192) < 1e-12)
  }

  test("n=12, all differences positive: exact p is 0.000488") {
    val a = (1 to 12).map(i => 1.0 + i * 0.01)
    val b = (1 to 12).map(_ => 1.0)
    val r = Wilcoxon.signedRank(a, b)
    assert(math.abs(r.pTwoSided - 2.0 / 4096) < 1e-12)
  }

  test("n=5, all positive: p = 0.0625") {
    val a = Seq(2.0, 3.0, 4.0, 5.0, 6.0)
    val b = Seq(1.0, 1.0, 1.0, 1.0, 1.0)
    assert(math.abs(Wilcoxon.signedRank(a, b).pTwoSided - 0.0625) < 1e-12)
  }

  test("statistic bookkeeping: W+ + W- = n(n+1)/2") {
    val a = Seq(1.0, 5.0, 2.0, 8.0, 3.0, 9.0)
    val b = Seq(2.0, 3.0, 4.0, 4.0, 5.0, 1.0)
    val r = Wilcoxon.signedRank(a, b)
    val total = r.n * (r.n + 1) / 2.0
    assert(r.wPlus <= total)
    assert(r.w <= total / 2)
  }

  test("symmetry: swapping the samples keeps the p-value") {
    val a = Seq(1.0, 5.0, 2.0, 8.0, 3.0)
    val b = Seq(2.0, 3.0, 4.0, 4.0, 5.0)
    val p1 = Wilcoxon.signedRank(a, b).pTwoSided
    val p2 = Wilcoxon.signedRank(b, a).pTwoSided
    assert(math.abs(p1 - p2) < 1e-12)
  }

  test("zero differences are dropped") {
    val a = Seq(1.0, 2.0, 3.0, 4.0)
    val b = Seq(1.0, 2.0, 2.0, 3.0)
    assert(Wilcoxon.signedRank(a, b).n == 2)
  }

  test("all-zero differences are rejected") {
    intercept[IllegalArgumentException] { Wilcoxon.signedRank(Seq(1.0, 2.0), Seq(1.0, 2.0)) }
  }

  test("tied magnitudes get mean ranks: balanced case has p = 1") {
    // diffs +1, +1, -1, -1 with equal |d|: perfectly symmetric
    val r = Wilcoxon.signedRank(Seq(2.0, 2.0, 0.0, 0.0), Seq(1.0, 1.0, 1.0, 1.0))
    assert(math.abs(r.pTwoSided - 1.0) < 1e-9)
  }

  test("balanced evidence is insignificant, one-sided evidence significant") {
    val strong = Wilcoxon.signedRank((1 to 10).map(i => i + 1.0), (1 to 10).map(_.toDouble))
    assert(strong.pTwoSided < 0.05)
    val weak = Wilcoxon.signedRank(Seq(2.0, 0.0, 3.0, -1.0), Seq(1.0, 1.0, 1.0, 1.0))
    assert(weak.pTwoSided > 0.05)
  }

  test("p-values always land in (0, 1]") {
    val rng = new scala.util.Random(3)
    for (_ <- 0 until 30) {
      val n = 4 + rng.nextInt(12)
      val a = Seq.fill(n)(rng.nextDouble() * 10)
      val b = Seq.fill(n)(rng.nextDouble() * 10)
      if (a.zip(b).exists { case (x, y) => x != y }) {
        val p = Wilcoxon.signedRank(a, b).pTwoSided
        assert(p > 0.0 && p <= 1.0)
      }
    }
  }

  test("large n uses the exact distribution and stays sane") {
    val a = (1 to 40).map(i => i + (if (i % 3 == 0) 1.0 else -0.4))
    val b = (1 to 40).map(_.toDouble)
    val p = Wilcoxon.signedRank(a, b).pTwoSided
    assert(p > 0.0 && p <= 1.0)
  }

  test("n = 40 with every difference positive gives exactly 2/2^40") {
    val a = (1 to 40).map(i => 1.0 + i * 0.01)
    val b = (1 to 40).map(_ => 1.0)
    assert(Wilcoxon.signedRank(a, b).pTwoSided == 2.0 / (1L << 40))
  }

  test("n = 20 with mixed signs gives an exact p in (0, 1]") {
    val a = (1 to 20).map(i => i + (if (i % 2 == 0) 2.0 else -1.0))
    val b = (1 to 20).map(_.toDouble)
    val exact = Wilcoxon.signedRank(a, b).pTwoSided
    assert(exact > 0.0 && exact <= 1.0)
  }
}
