package repro.bench

import repro.SparkSpec
import repro.exp.{BenchConfig, Experiment, Tables}

/** Reproduces the data behind Fig 9(a): mean rank of the DT G-mean across
  * the datasets for GBABS vs GGBS / IGBS / SMOTE / Borderline-SMOTE /
  * SMOTENC / Tomek links (1 = best). Exercises every imbalanced baseline.
  */
class GmeanRankingBench extends SparkSpec {

  private val cfg = BenchConfig()

  test("imbalanced study: mean G-mean rank of the seven sampling methods") {
    val t0 = System.nanoTime()
    val clean = Tables.gmeanRanking(spark, cfg, noise = 0.0)
    val noisy = Tables.gmeanRanking(spark, cfg, noise = 0.20)
    val secs = (System.nanoTime() - t0) / 1e9
    println(f"\n== Mean rank of DT G-mean across datasets (Fig 9 data; 1 = best) — ${secs}%.1f s ==")
    println(f"${"method"}%-8s ${"0% noise"}%10s ${"20% noise"}%10s")
    Experiment.imbalancedMethods.sortBy(noisy(_)).foreach { m =>
      println(f"  $m%-8s ${clean(m)}%8.2f ${noisy(m)}%10.2f")
    }

    for (ranks <- Seq(clean, noisy)) {
      assert(ranks.keySet == Experiment.imbalancedMethods.toSet)
      ranks.values.foreach(r => assert(r >= 1.0 && r <= 7.0))
      // mean of mean-ranks must be (1 + 7) / 2 when ties average correctly
      assert(math.abs(ranks.values.sum / ranks.size - 4.0) < 1e-9)
    }
    // Paper shape: on standard data GBABS ranks mid-to-high among seven
    // methods; under class noise its relative rank improves and it beats
    // the GB baselines and the SMOTE family. (The paper reports GBABS as
    // outright best under noise; in our Gaussian substitution Tomek links
    // profit unusually from the clean mutual-NN structure and edge ahead —
    // recorded in EXPERIMENTS.md.)
    assert(clean("GBABS") <= 4.5,
      f"GBABS mean rank on clean data ${clean("GBABS")}%.2f should be competitive")
    assert(noisy("GBABS") <= 3.7,
      f"GBABS mean rank under 20%% noise ${noisy("GBABS")}%.2f should be near the top")
    assert(noisy("GBABS") <= clean("GBABS"),
      "noise should improve GBABS's relative standing")
    Seq("GGBS", "SM", "SMNC", "IGBS").foreach { m =>
      assert(noisy("GBABS") < noisy(m),
        f"GBABS (${noisy("GBABS")}%.2f) should outrank $m (${noisy(m)}%.2f) under noise")
    }
  }
}
