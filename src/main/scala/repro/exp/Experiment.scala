package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{GBABS, Point}
import repro.data.{DatasetGen, DatasetSpec}
import repro.gbs.{GGBS, IGBS}
import repro.ml._
import repro.sampling.{SRS, Smote, TomekLinks}

/** Knobs of the reproduction benches.
  *
  * The paper runs full-size datasets with sklearn-default classifiers; our
  * bench caps dataset size/dimension and ensemble sizes to fit the sealed
  * container's budget (documented in EXPERIMENTS.md). `unit` is the tiny
  * configuration used by the test suites.
  */
final case class BenchConfig(
    maxN: Int = 3000,
    maxP: Int = 48,
    folds: Int = 5,
    rho: Int = 5,
    purity: Double = 1.0,
    seed: Long = 7,
    rfTrees: Int = 25,
    gbdtRounds: Int = 20,
)

object BenchConfig {
  /** Small configuration for unit/integration tests. */
  val unit: BenchConfig = BenchConfig(maxN = 240, maxP = 10, folds = 3, rfTrees = 5, gbdtRounds = 4)
}

/** One experiment cell: a dataset, a noise ratio, and a CV fold. */
final case class CellKey(specIdx: Int, noise: Double, fold: Int)

/** One measurement: a (dataset, noise, fold, sampling method, learner). */
final case class CellResult(
    specId: String, noise: Double, fold: Int, method: String, learner: String,
    acc: Double, gmean: Double, ratio: Double,
)

/** Cell runner shared by all table benches. Every function here is pure in
  * (key, cfg), so the grid can be distributed with `spark.parallelize` —
  * each task regenerates its (deterministic) dataset locally instead of
  * shipping data.
  */
object Experiment {

  /** The five classifiers of the paper's Table IV. */
  def learners(cfg: BenchConfig): Vector[Learner] = Vector(
    DecisionTree(),
    GBDT.xgboostLike(cfg.gbdtRounds),
    GBDT.lightgbmLike(cfg.gbdtRounds),
    KNN(5),
    RandomForest(cfg.rfTrees),
  )

  /** The four sampling settings of Tables II/IV. */
  val coreMethods: Vector[String] = Vector("GBABS", "GGBS", "SRS", "None")

  /** The seven methods ranked in the imbalanced (G-mean) study (Fig 9a). */
  val imbalancedMethods: Vector[String] =
    Vector("GBABS", "GGBS", "IGBS", "SM", "BSM", "SMNC", "Tomek")

  private[exp] def cellSeed(cfg: BenchConfig, key: CellKey): Long =
    cfg.seed * 1000003L + key.specIdx * 10007L + math.round(key.noise * 100).toInt * 101L + key.fold

  /** Build the (standardized) train/test split for a cell. */
  def foldData(key: CellKey, cfg: BenchConfig): (DatasetSpec, Vector[Point], Vector[Point]) = {
    val spec = DatasetGen.specs(key.specIdx)
    val clean = DatasetGen.generate(spec, cfg.maxN, cfg.maxP, cfg.seed)
    val noisy = DatasetGen.withNoise(clean, key.noise, cfg.seed * 7 + key.specIdx)
    val folds = DatasetGen.stratifiedFolds(noisy, cfg.folds, cfg.seed * 13 + key.specIdx)
    val (train, test) = folds(key.fold)
    val (trS, teS) = DatasetGen.standardize(train, test)
    (spec, trS, teS)
  }

  /** Apply one sampling method; returns (sampled train, sampling ratio).
    * `gbabsRatio` matches SRS's ratio to GBABS's, as the paper specifies.
    */
  def applyMethod(method: String, train: Vector[Point], spec: DatasetSpec,
                  cfg: BenchConfig, seed: Long, gbabsRatio: Double): (Vector[Point], Double) = {
    val pEff = train.headOption.map(_.dim).getOrElse(0)
    nonEmptyOr(train, method match {
      case "GBABS" => GBABS.run(train, cfg.rho, seed).sampled
      case "GGBS"  => GGBS.sample(train, cfg.purity, seed)
      case "IGBS"  => IGBS.sample(train, cfg.purity, seed)
      case "SRS"   => SRS.sample(train, gbabsRatio, seed)
      case "SM"    => Smote.smote(train, seed)
      case "BSM"   => Smote.borderlineSmote(train, seed)
      case "SMNC"  => Smote.smoteNC(train, spec.catIdx.filter(_ < pEff), seed)
      case "Tomek" => TomekLinks.sample(train)
      case "None"  => train
      case other   => throw new IllegalArgumentException(s"unknown sampling method: $other")
    })
  }

  /** An empty sample falls back to the whole training set. */
  private def nonEmptyOr(train: Vector[Point], sampled: Vector[Point]): (Vector[Point], Double) = {
    val safe = if (sampled.isEmpty) train else sampled
    (safe, safe.size.toDouble / train.size)
  }

  /** Run every (method, learner) pair of one cell. GBABS runs at most once:
    * its sample serves the "GBABS" method and its ratio sizes SRS.
    */
  def runCell(key: CellKey, cfg: BenchConfig,
              methods: Vector[String], useLearners: Vector[Learner]): Vector[CellResult] = {
    val (spec, train, test) = foldData(key, cfg)
    val seed = cellSeed(cfg, key)
    // The ratio argument sizes SRS only; GBABS does not read it.
    lazy val gbabs = applyMethod("GBABS", train, spec, cfg, seed, gbabsRatio = 1.0)
    val actual = test.map(_.label)
    for {
      method <- methods
      (sampled, ratio) = if (method == "GBABS") gbabs else applyMethod(method, train, spec, cfg, seed, gbabs._2)
      learner <- useLearners
    } yield {
      val model = learner.fit(sampled, seed)
      val pred = model.predictAll(test)
      CellResult(spec.id, key.noise, key.fold, method, learner.name,
        Metrics.accuracy(pred, actual), Metrics.gmean(pred, actual), ratio)
    }
  }

  /** Distribute a grid of cells over the Spark cluster. */
  def runGrid(spark: SparkSession, keys: Seq[CellKey], cfg: BenchConfig,
              methods: Vector[String], useLearners: Vector[Learner]): Vector[CellResult] = {
    val sc = spark.sparkContext
    sc.parallelize(keys, math.max(1, keys.size))
      .flatMap(k => runCell(k, cfg, methods, useLearners))
      .collect()
      .toVector
  }

  /** All (spec, fold) keys for the given noise ratios. */
  def gridKeys(cfg: BenchConfig, noises: Seq[Double],
               specIdxs: Seq[Int] = DatasetGen.specs.indices): Vector[CellKey] =
    (for {
      s <- specIdxs
      nz <- noises
      f <- 0 until cfg.folds
    } yield CellKey(s, nz, f)).toVector
}
