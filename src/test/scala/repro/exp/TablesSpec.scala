package repro.exp

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import repro.SparkSpec

/** `Tables.means` against the filter-then-mean scan each table used to run
  * once per output cell, bit for bit, for every key shape the tables use.
  */
class TablesSpec extends SparkSpec {

  private val specIds = Vector("S1", "S2", "S3")
  private val noises = 0.0 +: Tables.noiseRatios.take(2)
  private val methods = Experiment.imbalancedMethods.take(3) :+ "None"
  private val learners = Vector("DT", "kNN")

  /** Metric values of mixed magnitude, so that a different summation order
    * would usually change the last bits of a mean.
    */
  private val metric: Gen[Double] =
    Gen.oneOf(Gen.choose(0.0, 1.0), Gen.choose(0.0, 1e-9), Gen.oneOf(0.1, 1.0 / 3, 0.0, 1.0))

  private val result: Gen[CellResult] =
    for {
      s <- Gen.oneOf(specIds); nz <- Gen.oneOf(noises); f <- Gen.choose(0, 4)
      m <- Gen.oneOf(methods); l <- Gen.oneOf(learners)
      acc <- metric; gmean <- metric; ratio <- metric
    } yield CellResult(s, nz, f, m, l, acc, gmean, ratio)

  /** Results in random order, several per key, as a grid would return them. */
  private val results: Gen[Vector[CellResult]] =
    Gen.choose(0, 120).flatMap(n => Gen.listOfN(n, result)).map(_.toVector)

  // The parent's expression, kept verbatim: one filter and one mean per cell.
  private def mean(xs: Iterable[Double]): Double = xs.sum / xs.size

  private def agrees[K](rs: Vector[CellResult], got: Map[K, Double], domain: Seq[K])(
      matches: K => CellResult => Boolean, value: CellResult => Double): Boolean = {
    val present = domain.filter(k => rs.exists(matches(k)))
    got.keySet == present.toSet && present.forall { k =>
      java.lang.Double.doubleToRawLongBits(got(k)) ==
        java.lang.Double.doubleToRawLongBits(mean(rs.filter(matches(k)).map(value)))
    }
  }

  test("property: means equals the per-cell filter-then-mean for every table's key") {
    val prop = Prop.forAllNoShrink(results) { rs =>
      val bySpecMethod = for (s <- specIds; m <- methods) yield (s, m)
      val byLearnerMethodNoise = for (l <- learners; m <- methods; nz <- noises) yield (l, m, nz)
      val bySpecNoiseMethod = for (s <- specIds; nz <- noises; m <- methods) yield (s, nz, m)
      // Table II
      agrees(rs, Tables.means(rs, _.acc)(r => (r.specId, r.method)), bySpecMethod)(
        { case (s, m) => r => r.specId == s && r.method == m }, _.acc) &&
      // Fig 9(a) ranking
      agrees(rs, Tables.means(rs, _.gmean)(r => (r.specId, r.method)), bySpecMethod)(
        { case (s, m) => r => r.specId == s && r.method == m }, _.gmean) &&
      // Table IV
      agrees(rs, Tables.means(rs, _.acc)(r => (r.learner, r.method, r.noise)), byLearnerMethodNoise)(
        { case (l, m, nz) => r => r.learner == l && r.method == m && r.noise == nz }, _.acc) &&
      // Fig 6 sampling ratios
      agrees(rs, Tables.means(rs, _.ratio)(r => (r.specId, r.noise, r.method)), bySpecNoiseMethod)(
        { case (s, nz, m) => r => r.specId == s && r.noise == nz && r.method == m }, _.ratio)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(20261017L), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
