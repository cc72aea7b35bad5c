package repro.bench

import repro.SparkSpec
import repro.data.DatasetGen
import repro.exp.{BenchConfig, Tables}

/** Reproduces the data behind Fig 6: sampling ratio of GBABS vs GGBS on
  * every dataset at noise ratios 0%..40%.
  */
class SamplingRatioBench extends SparkSpec {

  private val cfg = BenchConfig()

  test("sampling ratios: GBABS vs GGBS per dataset and noise ratio") {
    val noises = 0.0 +: Tables.noiseRatios
    val t0 = System.nanoTime()
    val ratios = Tables.samplingRatios(spark, cfg, noises)
    val secs = (System.nanoTime() - t0) / 1e9
    println(f"\n== Sampling ratio GBABS/GGBS per dataset & noise (Fig 6 data) — ${secs}%.1f s ==")
    println(Tables.formatSamplingRatios(ratios, noises))

    ratios.values.foreach { case (g, b) =>
      assert(g > 0.0 && g <= 1.0)
      assert(b > 0.0 && b <= 1.0)
    }
    def meanOf(nz: Double, f: ((Double, Double)) => Double) = {
      val vs = DatasetGen.specs.map(s => f(ratios((s.id, nz)))); vs.sum / vs.size
    }
    // Paper shape (noise study, Fig 6(b)-(f)): under class noise GBABS
    // samples less than GGBS, and GGBS degenerates toward ratio 1.0 while
    // GBABS stays clearly below. (At 0% noise our Gaussian analogs are
    // unusually ball-friendly, so GGBS compresses better than it does on
    // the paper's real datasets — recorded in EXPERIMENTS.md.)
    Seq(0.20, 0.30, 0.40).foreach { nz =>
      val gAvg = meanOf(nz, _._1); val bAvg = meanOf(nz, _._2)
      assert(gAvg <= bAvg + 0.02,
        f"at ${nz * 100}%.0f%% noise GBABS mean ratio $gAvg%.3f should be <= GGBS $bAvg%.3f")
    }
    // GGBS loses its compression ability as noise grows (ratio -> 1.0).
    assert(meanOf(0.40, _._2) > 0.95,
      f"GGBS at 40%% noise should sample nearly everything, got ${meanOf(0.40, _._2)}%.3f")
    assert(meanOf(0.40, _._1) < 0.9,
      f"GBABS at 40%% noise should stay below GGBS, got ${meanOf(0.40, _._1)}%.3f")
    // Paper observation: GBABS achieves notable compression somewhere
    // (minimum ratio around 0.3 in the paper — ours is banana too).
    val minRatio = DatasetGen.specs.map(s => ratios((s.id, 0.0))._1).min
    assert(minRatio < 0.7, f"expected some dataset to compress well, min=$minRatio%.2f")
  }
}
