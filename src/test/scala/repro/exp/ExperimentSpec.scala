package repro.exp

import repro.SparkSpec
import repro.ml.DecisionTree

class ExperimentSpec extends SparkSpec {

  private val cfg = BenchConfig.unit
  private val dtOnly = Vector[repro.ml.Learner](DecisionTree())

  test("unit config keeps datasets small") {
    assert(cfg.maxN <= 300 && cfg.maxP <= 16)
  }

  test("foldData splits and standardizes") {
    val (spec, train, test) = Experiment.foldData(CellKey(0, 0.0, 0), cfg)
    assert(spec.id == "S1")
    assert(train.nonEmpty && test.nonEmpty)
    assert(train.size + test.size == math.min(spec.n, cfg.maxN))
    assert(train.map(_.id).toSet.intersect(test.map(_.id).toSet).isEmpty)
  }

  test("foldData at a noise ratio actually injects noise") {
    // Compare against the underlying clean dataset: noisy folds reshuffle
    // (stratification depends on labels), so look at train+test together.
    val (_, trainN, testN) = Experiment.foldData(CellKey(1, 0.3, 0), cfg)
    val spec = repro.data.DatasetGen.specs(1)
    val clean = repro.data.DatasetGen.generate(spec, cfg.maxN, cfg.maxP, cfg.seed)
    val cleanById = clean.map(p => p.id -> p.label).toMap
    val flips = (trainN ++ testN).count(p => cleanById(p.id) != p.label)
    assert(flips == math.round(0.3 * clean.size).toInt,
      s"30% noise must flip exactly ${math.round(0.3 * clean.size)} labels, got $flips")
  }

  test("applyMethod GBABS subsets the train set") {
    val (spec, train, _) = Experiment.foldData(CellKey(1, 0.0, 0), cfg)
    val (s, ratio) = Experiment.applyMethod("GBABS", train, spec, cfg, 1, 1.0)
    assert(s.nonEmpty && s.size <= train.size)
    assert(math.abs(ratio - s.size.toDouble / train.size) < 1e-12)
  }

  test("applyMethod SRS matches the GBABS ratio") {
    val (spec, train, _) = Experiment.foldData(CellKey(1, 0.0, 0), cfg)
    val (s, _) = Experiment.applyMethod("SRS", train, spec, cfg, 1, gbabsRatio = 0.5)
    assert(s.size == math.round(0.5 * train.size).toInt)
  }

  test("applyMethod None is identity") {
    val (spec, train, _) = Experiment.foldData(CellKey(2, 0.0, 1), cfg)
    val (s, ratio) = Experiment.applyMethod("None", train, spec, cfg, 1, 1.0)
    assert(s eq train)
    assert(ratio === 1.0)
  }

  test("applyMethod rejects unknown methods") {
    val (spec, train, _) = Experiment.foldData(CellKey(0, 0.0, 0), cfg)
    intercept[IllegalArgumentException] {
      Experiment.applyMethod("bogus", train, spec, cfg, 1, 1.0)
    }
  }

  test("every imbalanced method runs end-to-end on a small cell") {
    val (spec, train, _) = Experiment.foldData(CellKey(1, 0.0, 0), cfg)
    Experiment.imbalancedMethods.foreach { m =>
      val (s, ratio) = Experiment.applyMethod(m, train, spec, cfg, 1, 0.8)
      assert(s.nonEmpty, s"method $m produced an empty sample")
      assert(ratio > 0.0)
    }
  }

  test("runCell produces one result per (method, learner)") {
    val res = Experiment.runCell(CellKey(0, 0.0, 0), cfg, Experiment.coreMethods, dtOnly)
    assert(res.size == Experiment.coreMethods.size)
    assert(res.map(_.method).toSet == Experiment.coreMethods.toSet)
    res.foreach { r =>
      assert(r.acc >= 0.0 && r.acc <= 1.0)
      assert(r.gmean >= 0.0 && r.gmean <= 1.0)
      assert(r.ratio > 0.0 && r.ratio <= 1.0)
    }
  }

  test("runCell is deterministic") {
    val a = Experiment.runCell(CellKey(1, 0.1, 1), cfg, Vector("GBABS", "SRS"), dtOnly)
    val b = Experiment.runCell(CellKey(1, 0.1, 1), cfg, Vector("GBABS", "SRS"), dtOnly)
    assert(a == b)
  }

  test("runCell equals a replay that runs GBABS separately for the SRS ratio and the GBABS method") {
    val learners = Experiment.learners(cfg)
    for (key <- Seq(CellKey(1, 0.1, 1), CellKey(4, 0.2, 0));
         (methods, ls) <- Seq(Experiment.coreMethods -> learners, Experiment.imbalancedMethods -> dtOnly)) {
      val (spec, train, test) = Experiment.foldData(key, cfg)
      val seed = Experiment.cellSeed(cfg, key)
      val gbabs = repro.core.GBABS.run(train, cfg.rho, seed)
      val gbabsRatio = if (gbabs.sampled.isEmpty) 1.0 else gbabs.samplingRatio
      val replay = for {
        m <- methods
        (sampled, ratio) = Experiment.applyMethod(m, train, spec, cfg, seed, gbabsRatio)
        l <- ls
      } yield {
        val pred = l.fit(sampled, seed).predictAll(test)
        val actual = test.map(_.label)
        CellResult(spec.id, key.noise, key.fold, m, l.name,
          repro.ml.Metrics.accuracy(pred, actual), repro.ml.Metrics.gmean(pred, actual), ratio)
      }
      assert(Experiment.runCell(key, cfg, methods, ls) == replay, s"cell $key, methods $methods")
    }
  }

  test("the five learners of Table IV are DT, XGBoost, LightGBM, kNN, RF") {
    assert(Experiment.learners(cfg).map(_.name) ==
      Vector("DT", "XGBoost", "LightGBM", "kNN", "RF"))
  }

  test("gridKeys enumerates specs x noises x folds") {
    val keys = Experiment.gridKeys(cfg, Seq(0.0, 0.1), specIdxs = Seq(0, 1))
    assert(keys.size == 2 * 2 * cfg.folds)
    assert(keys.toSet.size == keys.size)
  }

  test("runGrid on Spark matches local runCell results") {
    val keys = Vector(CellKey(0, 0.0, 0), CellKey(1, 0.0, 1))
    val viaSpark = Experiment.runGrid(spark, keys, cfg, Vector("GBABS", "None"), dtOnly)
    val local = keys.flatMap(k => Experiment.runCell(k, cfg, Vector("GBABS", "None"), dtOnly))
    assert(viaSpark.toSet == local.toSet)
  }

  test("GBABS sampling ratio is below 1 on a compressible dataset") {
    val res = Experiment.runCell(CellKey(4, 0.0, 0), cfg, Vector("GBABS"), dtOnly) // banana
    assert(res.head.ratio < 1.0)
  }

  test("paper reference tables are complete") {
    assert(PaperNumbers.tableII.size == 13)
    assert(PaperNumbers.tableII.forall(_._2.keySet == Experiment.coreMethods.toSet))
    assert(PaperNumbers.tableIII.keySet == Set("GGBS", "SRS", "None"))
    assert(PaperNumbers.tableIV.size == 5 * 4 * 5)
  }

  test("tableIII Wilcoxon rows compare GBABS against the three baselines") {
    // synthetic table-II rows where GBABS dominates: all three must be significant
    val rows = (1 to 13).map { i =>
      s"S$i" -> Map("GBABS" -> 0.9, "GGBS" -> (0.8 + i * 0.001),
        "SRS" -> (0.79 + i * 0.001), "None" -> (0.81 + i * 0.001))
    }.toVector
    val t3 = Tables.tableIII(rows)
    assert(t3.size == 3)
    assert(t3.forall(_.significant))
    assert(math.abs(t3.head.p - 0.000244140625) < 1e-9)
  }

  test("tableI rows reflect the caps") {
    val rows = Tables.tableI(cfg)
    assert(rows.size == 13)
    rows.foreach { r =>
      assert(r.n <= cfg.maxN && r.p <= cfg.maxP)
      assert(r.q == DatasetGen_q(r.id))
    }
  }

  private def DatasetGen_q(id: String): Int =
    repro.data.DatasetGen.specs.find(_.id == id).get.q
}
