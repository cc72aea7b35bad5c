package repro.bench

import repro.SparkSpec
import repro.core.GBABS
import repro.exp.{BenchConfig, CellKey, Experiment}
import repro.ml.{DecisionTree, Metrics}

/** Reproduces the parameter-sensitivity study (Fig 10/11 data): sampling
  * ratio and DT accuracy of GBABS as the density tolerance rho varies.
  * Run on a subset of datasets to stay inside the bench budget.
  */
class RhoSensitivityBench extends SparkSpec {

  private val cfg = BenchConfig()
  private val rhos = Vector(3, 5, 9, 15, 19)
  private val specIdxs = Vector(1, 4, 7) // S2 (hard), S5 (2D), S8 (multi-class)

  test("rho sensitivity: ratio and accuracy are stable across rho") {
    println("\n== Density tolerance sensitivity (Fig 10/11 data) ==")
    val rows = for (si <- specIdxs) yield {
      val spec = repro.data.DatasetGen.specs(si)
      val stats = for (rho <- rhos) yield {
        val cfgR = cfg.copy(rho = rho)
        val perFold = for (f <- 0 until cfg.folds) yield {
          val (_, train, test) = Experiment.foldData(CellKey(si, 0.0, f), cfgR)
          val res = GBABS.run(train, rho, cfgR.seed + f)
          val m = DecisionTree().fit(
            if (res.sampled.isEmpty) train else res.sampled, cfgR.seed)
          (res.samplingRatio, Metrics.accuracy(m.predictAll(test), test.map(_.label)))
        }
        val ratio = perFold.map(_._1).sum / perFold.size
        val acc = perFold.map(_._2).sum / perFold.size
        (rho, ratio, acc)
      }
      println(f"  ${spec.id}%-4s " + stats.map { case (r, ratio, acc) =>
        f"rho=$r%2d: ${ratio}%.2f/${acc}%.3f" }.mkString("  "))
      (spec.id, stats)
    }

    // Paper shape: GBABS is insensitive to rho — ratio and accuracy vary
    // only mildly across the sweep.
    rows.foreach { case (id, stats) =>
      val ratios = stats.map(_._2); val accs = stats.map(_._3)
      assert(ratios.max - ratios.min < 0.25, s"$id: sampling ratio too sensitive to rho ($ratios)")
      assert(accs.max - accs.min < 0.12, s"$id: accuracy too sensitive to rho ($accs)")
    }
  }
}
