package repro.exp

import org.apache.spark.sql.SparkSession
import repro.data.DatasetGen
import repro.ml.DecisionTree
import repro.stats.Wilcoxon

/** Reproduction of each evaluation table. Every method returns structured
  * rows (so benches can assert on them) and a formatted text block with
  * the paper's numbers alongside ours.
  */
object Tables {

  /** The class-noise ratios of the paper's noise study. */
  val noiseRatios: Vector[Double] = Vector(0.05, 0.10, 0.20, 0.30, 0.40)

  private val dt = Vector[repro.ml.Learner](DecisionTree())

  private def mean(xs: Iterable[Double]): Double = xs.sum / xs.size

  /** Mean of `metric` per `key`; a group keeps the results' order, so it sums as a filter would. */
  private[exp] def means[K](results: Vector[CellResult], metric: CellResult => Double)(key: CellResult => K): Map[K, Double] =
    results.groupBy(key).map { case (k, rs) => k -> mean(rs.map(metric)) }

  // ----------------------------------------------------------------- Table I

  /** Table I row: dataset alias, N, p, q, IR at bench scale. */
  final case class DatasetRow(id: String, name: String, n: Int, p: Int, q: Int, ir: Double,
                              paperN: Int, paperP: Int, paperIr: Double)

  /** Dataset details as actually generated under the bench caps. */
  def tableI(cfg: BenchConfig): Vector[DatasetRow] =
    DatasetGen.specs.map { spec =>
      val data = DatasetGen.generate(spec, cfg.maxN, cfg.maxP, cfg.seed)
      val counts = data.groupBy(_.label).values.map(_.size)
      DatasetRow(spec.id, spec.name, data.size, data.head.dim, counts.size,
        counts.max.toDouble / counts.min, spec.n, spec.p, spec.ir)
    }

  def formatTableI(rows: Vector[DatasetRow]): String = {
    val header = f"${"ID"}%-4s ${"Name"}%-16s ${"N"}%6s ${"p"}%4s ${"q"}%3s ${"IR"}%9s | paper: N, p, IR"
    val body = rows.map { r =>
      f"${r.id}%-4s ${r.name}%-16s ${r.n}%6d ${r.p}%4d ${r.q}%3d ${r.ir}%9.2f | ${r.paperN}%6d, ${r.paperP}%3d, ${r.paperIr}%8.2f"
    }
    (header +: body).mkString("\n")
  }

  // ---------------------------------------------------------------- Table II

  /** Table II: per dataset, DT accuracy under each sampling method. */
  def tableII(spark: SparkSession, cfg: BenchConfig): Vector[(String, Map[String, Double])] = {
    val keys = Experiment.gridKeys(cfg, Seq(0.0))
    val results = Experiment.runGrid(spark, keys, cfg, Experiment.coreMethods, dt)
    val acc = means(results, _.acc)(r => (r.specId, r.method))
    DatasetGen.specs.map { spec =>
      spec.id -> Experiment.coreMethods.map(m => m -> acc((spec.id, m))).toMap
    }
  }

  def formatTableII(rows: Vector[(String, Map[String, Double])]): String = {
    val methods = Experiment.coreMethods
    val header = f"${"Dataset"}%-8s" + methods.map(m => f"$m%10s").mkString +
      "   | paper: " + methods.map(m => f"$m%10s").mkString
    val body = rows.map { case (id, acc) =>
      val paper = PaperNumbers.tableII.toMap.apply(id)
      f"$id%-8s" + methods.map(m => f"${acc(m)}%10.4f").mkString +
        "   |        " + methods.map(m => f"${paper(m)}%10.4f").mkString
    }
    val avg = methods.map(m => mean(rows.map(_._2(m))))
    val avgPaper = methods.map(m => mean(PaperNumbers.tableII.map(_._2(m))))
    val footer = f"${"Average"}%-8s" + avg.map(a => f"$a%10.4f").mkString +
      "   |        " + avgPaper.map(a => f"$a%10.4f").mkString
    (header +: body :+ footer).mkString("\n")
  }

  // --------------------------------------------------------------- Table III

  final case class WilcoxonRow(comparison: String, p: Double, significant: Boolean, paperP: Double)

  /** Table III: Wilcoxon signed-rank of GBABS-DT vs each baseline, over the
    * 13 per-dataset Table II accuracies.
    */
  def tableIII(tableIIRows: Vector[(String, Map[String, Double])]): Vector[WilcoxonRow] = {
    val gbabs = tableIIRows.map(_._2("GBABS"))
    Vector("GGBS", "SRS", "None").map { m =>
      val other = tableIIRows.map(_._2(m))
      val p =
        if (gbabs.zip(other).forall { case (a, b) => a == b }) 1.0
        else Wilcoxon.signedRank(gbabs, other).pTwoSided
      WilcoxonRow(s"GBABS-DT vs. $m-DT", p, p < 0.05, PaperNumbers.tableIII(m))
    }
  }

  def formatTableIII(rows: Vector[WilcoxonRow]): String = {
    val header = f"${"Comparison"}%-24s ${"p-value"}%10s ${"sig(0.05)"}%10s ${"paper p"}%10s"
    (header +: rows.map { r =>
      f"${r.comparison}%-24s ${r.p}%10.6f ${if (r.significant) "yes" else "no"}%10s ${r.paperP}%10.6f"
    }).mkString("\n")
  }

  // ---------------------------------------------------------------- Table IV

  /** Table IV: average accuracy over all datasets per (learner, method,
    * noise ratio), for the five classifiers under the four settings.
    */
  def tableIV(spark: SparkSession, cfg: BenchConfig): Map[(String, String, Double), Double] = {
    val keys = Experiment.gridKeys(cfg, noiseRatios)
    val learners = Experiment.learners(cfg)
    val results = Experiment.runGrid(spark, keys, cfg, Experiment.coreMethods, learners)
    means(results, _.acc)(r => (r.learner, r.method, r.noise))
  }

  def formatTableIV(cells: Map[(String, String, Double), Double], learnerNames: Seq[String]): String = {
    val header = f"${"Learner-Method"}%-20s" + noiseRatios.map(nz => f"${s"${(nz * 100).toInt}%"}%9s").mkString +
      "   | paper" + noiseRatios.map(nz => f"${s"${(nz * 100).toInt}%"}%8s").mkString
    val body = for {
      l <- learnerNames
      m <- Experiment.coreMethods
    } yield {
      val ours = noiseRatios.map(nz => f"${cells((l, m, nz))}%9.4f").mkString
      val paper = noiseRatios.map { nz =>
        PaperNumbers.tableIV.get((l, m, nz)).map(v => f"$v%8.4f").getOrElse(f"${"-"}%8s")
      }.mkString
      f"$l-$m%-14s".take(20).padTo(20, ' ') + ours + "   |      " + paper
    }
    (header +: body).mkString("\n")
  }

  // ------------------------------------------- Extras: Fig 6 & Fig 9(a) data

  /** Sampling ratios of GBABS vs GGBS per dataset per noise ratio (the data
    * behind Fig 6). Returns (datasetId, noise) -> (gbabsRatio, ggbsRatio).
    */
  def samplingRatios(spark: SparkSession, cfg: BenchConfig,
                     noises: Seq[Double]): Map[(String, Double), (Double, Double)] = {
    val keys = Experiment.gridKeys(cfg, noises)
    val results = Experiment.runGrid(spark, keys, cfg, Vector("GBABS", "GGBS"), dt)
    val ratio = means(results, _.ratio)(r => (r.specId, r.noise, r.method))
    DatasetGen.specs.flatMap(spec => noises.map { nz =>
      (spec.id, nz) -> (ratio((spec.id, nz, "GBABS")), ratio((spec.id, nz, "GGBS")))
    }).toMap
  }

  /** One row per dataset, one "GBABS/GGBS" ratio column per noise ratio. */
  def formatSamplingRatios(ratios: Map[(String, Double), (Double, Double)], noises: Seq[Double]): String = {
    val header = f"${"Dataset"}%-8s" + noises.map(nz => f"${s"${(nz * 100).toInt}% GBABS/GGBS"}%16s").mkString
    val body = DatasetGen.specs.map { spec =>
      f"${spec.id}%-8s" + noises.map(nz => ratios((spec.id, nz))).map { case (g, b) => f"${f"$g%.2f/$b%.2f"}%16s" }.mkString
    }
    (header +: body).mkString("\n")
  }

  /** Mean rank (1 = best) of each method's DT G-mean over the datasets —
    * the data behind Fig 9(a).
    */
  def gmeanRanking(spark: SparkSession, cfg: BenchConfig, noise: Double = 0.0): Map[String, Double] = {
    val keys = Experiment.gridKeys(cfg, Seq(noise))
    val results = Experiment.runGrid(spark, keys, cfg, Experiment.imbalancedMethods, dt)
    val gmean = means(results, _.gmean)(r => (r.specId, r.method))
    val ranks = DatasetGen.specs.map { spec =>
      // Rank by descending G-mean; ties share the mean rank.
      val negated = Experiment.imbalancedMethods.map(m => -gmean((spec.id, m))).toArray
      Experiment.imbalancedMethods.zip(Wilcoxon.ranks(negated)).toMap
    }
    Experiment.imbalancedMethods.map(m => m -> mean(ranks.map(_(m)))).toMap
  }
}
