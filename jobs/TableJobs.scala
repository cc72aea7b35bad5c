package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.{BenchConfig, Tables}

/** Shared session/config plumbing for the per-table spark-submit jobs.
  *
  * Optional args: `--maxN <int> --maxP <int> --folds <int> --rho <int>`;
  * a missing one keeps its `BenchConfig` default. An unknown flag or a flag
  * without a value throws `IllegalArgumentException`.
  */
object JobContext {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .getOrCreate()

  private val flags = Set("--maxN", "--maxP", "--folds", "--rho")

  def config(args: Array[String]): BenchConfig = {
    val kv = args.grouped(2).map { pair =>
      require(flags(pair(0)), s"unknown flag: ${pair(0)}")
      require(pair.length == 2, s"missing value for flag: ${pair(0)}")
      pair(0) -> pair(1)
    }.toMap
    def int(key: String, default: Int): Int = kv.get(key).fold(default)(_.toInt)
    val d = BenchConfig()
    d.copy(maxN = int("--maxN", d.maxN), maxP = int("--maxP", d.maxP),
      folds = int("--folds", d.folds), rho = int("--rho", d.rho))
  }
}

/** Table I — dataset details at bench scale vs the paper's originals. */
object TableI {
  def main(args: Array[String]): Unit = {
    val cfg = JobContext.config(args)
    println("== Table I: Details of Datasets (ours | paper) ==")
    println(Tables.formatTableI(Tables.tableI(cfg)))
  }
}

/** Table II — DT accuracy under GBABS / GGBS / SRS / none. */
object TableII {
  def main(args: Array[String]): Unit = {
    val spark = JobContext.session("gbabs-table2")
    val cfg = JobContext.config(args)
    println("== Table II: testing Accuracy of DT (ours | paper) ==")
    println(Tables.formatTableII(Tables.tableII(spark, cfg)))
    spark.stop()
  }
}

/** Table III — Wilcoxon signed-rank tests over the Table II accuracies. */
object TableIII {
  def main(args: Array[String]): Unit = {
    val spark = JobContext.session("gbabs-table3")
    val cfg = JobContext.config(args)
    println("== Table III: Wilcoxon signed-rank (ours | paper) ==")
    println(Tables.formatTableIII(Tables.tableIII(Tables.tableII(spark, cfg))))
    spark.stop()
  }
}

/** Table IV — average accuracy on class-noise datasets, 5 classifiers. */
object TableIV {
  def main(args: Array[String]): Unit = {
    val spark = JobContext.session("gbabs-table4")
    val cfg = JobContext.config(args)
    println("== Table IV: average testing Accuracy on class-noise datasets (ours | paper) ==")
    val cells = Tables.tableIV(spark, cfg)
    println(Tables.formatTableIV(cells, repro.exp.Experiment.learners(cfg).map(_.name)))
    spark.stop()
  }
}

/** Sampling-ratio study (the data behind Fig 6). */
object SamplingRatio {
  def main(args: Array[String]): Unit = {
    val spark = JobContext.session("gbabs-ratio")
    val cfg = JobContext.config(args)
    val noises = 0.0 +: Tables.noiseRatios
    val ratios = Tables.samplingRatios(spark, cfg, noises)
    println("== Sampling ratio GBABS vs GGBS per dataset/noise (Fig 6 data) ==")
    println(Tables.formatSamplingRatios(ratios, noises))
    spark.stop()
  }
}

/** Imbalanced G-mean ranking (the data behind Fig 9(a)). */
object GmeanRanking {
  def main(args: Array[String]): Unit = {
    val spark = JobContext.session("gbabs-gmean")
    val cfg = JobContext.config(args)
    val ranks = Tables.gmeanRanking(spark, cfg)
    println("== Mean rank of DT G-mean across datasets (Fig 9(a) data; 1 = best) ==")
    ranks.toVector.sortBy(_._2).foreach { case (m, r) => println(f"$m%-8s $r%6.2f") }
    spark.stop()
  }
}
