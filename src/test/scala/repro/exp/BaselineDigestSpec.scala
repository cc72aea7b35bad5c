package repro.exp

import repro.{SparkSpec, TestData}
import repro.core.{GBABS, Point}
import repro.data.DatasetGen
import repro.ml.KNN

/** The nearest-neighbour baselines and the kNN learner on all 13 dataset
  * analogs x {0, 0.2} label noise (fold 0, `maxN = 400`) must reproduce the
  * digests in `golden/baselines-n400.txt`, recorded from the per-caller
  * neighbour searches that `repro.core.Neighbors` replaced.
  */
class BaselineDigestSpec extends SparkSpec {
  import BaselineDigestSpec._

  private val golden: Vector[String] = TestData.golden("golden/baselines-n400.txt")

  test("baseline samples and kNN predictions reproduce the recorded digests at maxN = 400") {
    val got = lines
    assert(got.size == golden.size)
    got.zip(golden).foreach { case (g, want) => assert(g == want) }
  }
}

object BaselineDigestSpec {
  val cfg: BenchConfig = BenchConfig(maxN = 400)
  val methods: Vector[String] = Vector("GGBS", "IGBS", "SRS", "SM", "BSM", "SMNC", "Tomek", "None")

  /** SHA-256 over the ordered ids, labels and feature bits of a sample. */
  def digest(ps: Seq[Point]): String = TestData.sha256 { out =>
    out.writeInt(ps.size)
    ps.foreach { pt =>
      out.writeLong(pt.id); out.writeInt(pt.label)
      pt.features.foreach(v => out.writeLong(java.lang.Double.doubleToRawLongBits(v)))
    }
  }

  /** One line per (dataset, noise, method): the `Experiment.applyMethod`
    * sample at the cell's seed, and kNN's predictions on the test fold
    * after fitting that sample.
    */
  def lines: Vector[String] =
    for {
      i <- DatasetGen.specs.indices.toVector
      nz <- Vector(0.0, 0.2)
      key = CellKey(i, nz, 0)
      (spec, train, test) = Experiment.foldData(key, cfg)
      seed = Experiment.cellSeed(cfg, key)
      gbabs = GBABS.run(train, cfg.rho, seed)
      ratio = if (gbabs.sampled.isEmpty) 1.0 else gbabs.samplingRatio
      method <- methods
    } yield {
      val (sampled, _) = Experiment.applyMethod(method, train, spec, cfg, seed, ratio)
      val pred = KNN(5).fit(sampled, seed).predictAll(test)
      s"${spec.id} $nz $method size=${sampled.size} sample=${digest(sampled)} " +
        s"knn=${TestData.sha256(out => pred.foreach(out.writeInt))}"
    }

  /** Prints the golden lines: `sbt "Test/runMain repro.exp.BaselineDigestSpec"`. */
  def main(args: Array[String]): Unit = lines.foreach(println)
}
