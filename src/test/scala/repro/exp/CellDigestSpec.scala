package repro.exp

import repro.{SparkSpec, TestData}
import repro.data.DatasetGen
import repro.ml.DecisionTree

/** `Experiment.runCell` on all 13 dataset analogs x {0, 0.2} label noise
  * (fold 0, `maxN = 300`) must reproduce the digests in
  * `golden/cells-n300.txt`: the Table IV path (core methods x the five
  * learners) and the Fig 9 path (imbalanced methods x DT). They were
  * recorded before the learner fits were rewritten without boxing, so any
  * change to a prediction of DT, RF, either GBDT preset or kNN fails.
  */
class CellDigestSpec extends SparkSpec {
  import CellDigestSpec._

  private val golden: Vector[String] = TestData.golden("golden/cells-n300.txt")

  test("runCell reproduces the recorded accuracy, G-mean and ratio digests at maxN = 300") {
    val got = lines
    assert(got.size == golden.size)
    got.zip(golden).foreach { case (g, want) => assert(g == want) }
  }
}

object CellDigestSpec {
  val cfg: BenchConfig = BenchConfig(maxN = 300)

  /** SHA-256 over each result's method, learner and the raw bits of its
    * accuracy, G-mean and sampling ratio, in result order.
    */
  def digest(results: Seq[CellResult]): String = TestData.sha256 { out =>
    out.writeInt(results.size)
    results.foreach { r =>
      out.writeUTF(r.method); out.writeUTF(r.learner)
      Seq(r.acc, r.gmean, r.ratio).foreach(v => out.writeLong(java.lang.Double.doubleToRawLongBits(v)))
    }
  }

  /** One line per (dataset, noise, path). */
  def lines: Vector[String] = {
    val paths = Vector(
      "table4" -> (Experiment.coreMethods, Experiment.learners(cfg)),
      "fig9" -> (Experiment.imbalancedMethods, Vector(DecisionTree())))
    for {
      i <- DatasetGen.specs.indices.toVector
      nz <- Vector(0.0, 0.2)
      (path, (methods, learners)) <- paths
    } yield {
      val results = Experiment.runCell(CellKey(i, nz, 0), cfg, methods, learners)
      s"${DatasetGen.specs(i).id} $nz $path results=${results.size} sha256=${digest(results)}"
    }
  }

  /** Prints the golden lines: `sbt "Test/runMain repro.exp.CellDigestSpec"`. */
  def main(args: Array[String]): Unit = lines.foreach(println)
}
