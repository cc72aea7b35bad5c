package repro.bench

import repro.SparkSpec
import repro.exp.{BenchConfig, Experiment, Tables}

/** Reproduces Table IV: average testing Accuracy on class-noise datasets
  * (5%..40%) for DT, XGBoost-like, LightGBM-like, kNN and RF under
  * GBABS / GGBS / SRS / no sampling. This is the heavyweight bench: the
  * 13 x 5 x 5-fold grid is distributed over the local Spark cluster.
  */
class TableIVBench extends SparkSpec {

  private val cfg = BenchConfig()

  test("Table IV: average accuracy under class noise, five classifiers") {
    val t0 = System.nanoTime()
    val cells = Tables.tableIV(spark, cfg)
    val secs = (System.nanoTime() - t0) / 1e9
    val learnerNames = Experiment.learners(cfg).map(_.name)
    println(f"\n== Table IV: average testing Accuracy on class-noise datasets (ours | paper) — ${secs}%.1f s ==")
    println(Tables.formatTableIV(cells, learnerNames))

    assert(cells.size == 5 * 4 * 5)
    cells.values.foreach(a => assert(a >= 0.0 && a <= 1.0))

    // Shape 1: accuracy decays monotonically (within tolerance) as noise grows.
    for (l <- learnerNames; m <- Experiment.coreMethods) {
      val accs = Tables.noiseRatios.map(nz => cells((l, m, nz)))
      accs.zip(accs.tail).foreach { case (a, b) =>
        assert(b <= a + 0.03, f"$l-$m: accuracy should decay with noise ($accs)")
      }
    }

    // Shape 2 (headline): at high noise GBABS dominates the alternatives
    // for every classifier, as in the paper.
    for (l <- learnerNames; nz <- Seq(0.30, 0.40)) {
      val gbabs = cells((l, "GBABS", nz))
      for (m <- Seq("GGBS", "SRS", "None")) {
        assert(gbabs >= cells((l, m, nz)) - 0.02,
          f"$l at ${nz * 100}%.0f%% noise: GBABS $gbabs%.4f vs $m ${cells((l, m, nz))}%.4f")
      }
    }
  }
}
