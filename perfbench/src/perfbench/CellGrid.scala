package perfbench

import repro.core.{GBABSResult, Point}
import repro.exp.{BenchConfig, CellKey, CellResult, Experiment}
import repro.gbs.KDivisionGBG
import repro.ml.{Classifier, Learner}
import scala.collection.mutable

/** A learner whose fit and predict calls are spans. */
final case class TracedLearner(inner: Learner, tr: Tracer) extends Learner {
  override def name: String = inner.name
  override def fit(train: Vector[Point], seed: Long): Classifier = {
    val model = tr.span(s"fit_s.$name")(inner.fit(train, seed))
    new Classifier {
      override def predict(x: Array[Double]): Int = model.predict(x)
      override def predictAll(test: Seq[Point]): Vector[Int] =
        tr.span(s"predict_s.$name")(model.predictAll(test))
    }
  }
}

/** `cell-grid`: `Experiment.runCell` over S2, S5, S8, S10 and S13 at 20 %
  * noise, fold 0, maxN = 400. Each cell runs twice, as the table
  * benches do: the four core methods x the five learners (Table IV), then
  * the seven imbalanced methods x DT (Fig 9). A round is the whole grid.
  * Learners and baseline samplers do most of the work; RD-GBG about a fifth.
  */
final class CellGrid(run: Run) extends Workload {
  private val cfg = BenchConfig(maxN = 400, seed = run.opts.seed)
  private val keys =
    Vector(1, 4, 7, 9, 12).map(s => CellKey(s, Inputs.Noise, 0))
  private val tr = run.tracer
  private val learners = Experiment.learners(cfg).map(l => if (tr.enabled) TracedLearner(l, tr) else l)
  private val paths = Vector(
    Experiment.coreMethods -> learners,
    Experiment.imbalancedMethods -> learners.take(1),
  )

  private var trainSize = Map.empty[CellKey, Int]
  private var results = Vector.empty[Option[Vector[CellResult]]]
  private var first = Vector.empty[Option[Vector[CellResult]]]
  /** Per traced round: layer name -> seconds attributed inside runCell. */
  private val attributed = mutable.Map.empty[(Int, String), Double].withDefaultValue(0.0)

  def setup(): Unit = {
    val folds = run.generate(keys.map(k => k -> Experiment.foldData(k, cfg)))
    trainSize = folds.map { case (k, (_, train, _)) => k -> train.size }.toMap
    // Warm-up: the whole grid at under two thirds of the size, so every learner and
    // sampler has run on every dataset shape before the timed round (the
    // first full-size grid of a cold JVM runs about 15 % slower).
    val warm = cfg.copy(maxN = 250)
    for (k <- keys; (methods, ls) <- paths) Experiment.runCell(k, warm, methods, ls)
  }

  def round(r: Int): Unit =
    results = for (k <- keys; (methods, ls) <- paths) yield
      run.attempt(s"runCell $k")(tr.span("exp.cell_s")(Experiment.runCell(k, cfg, methods, ls)))

  def check(r: Int): Unit = {
    val calls = for (k <- keys; p <- paths) yield (k, p)
    calls.zip(results).foreach {
      case ((k, (methods, ls)), Some(res)) =>
        val found = Vector.newBuilder[String]
        if (res.size != methods.size * ls.size)
          found += s"${res.size} results, expected ${methods.size * ls.size}"
        res.find(c => !(c.acc >= 0 && c.acc <= 1 && c.gmean >= 0 && c.gmean <= 1))
          .foreach(c => found += s"accuracy or G-mean out of [0, 1]: $c")
        run.checked(s"runCell $k", found.result())
      case (_, None) =>
    }
    if (r == 0) first = results
    else calls.zip(results).zip(first).foreach {
      case (((k, _), Some(a)), Some(b)) =>
        run.checked(s"runCell $k round $r", if (a == b) Nil else Seq("results differ from round 0"))
      case _ =>
    }
    if (tr.enabled) replay(r)
  }

  /** Replays, outside the timing, the sampler calls `runCell` makes for each
    * cell with the same arguments, to time each layer. The cell seed mirrors
    * the private `Experiment.cellSeed`; the replayed GBABS ratio must equal
    * the one `runCell` reported, or the check fails.
    */
  private def replay(r: Int): Unit = {
    val cells = tr.all.filter(s => s.round == r && s.name == "exp.cell_s")
    val children = tr.all.filter(_.parent >= 0).groupBy(_.parent)
    keys.zipWithIndex.foreach { case (k, ki) =>
      val seed = cfg.seed * 1000003L + k.specIdx * 10007L + math.round(k.noise * 100).toInt * 101L + k.fold
      val ((spec, train, _), dataS) = tr.timed("replay.data")(Experiment.foldData(k, cfg))
      val (gb, gbS) = tr.timed("replay.GBABS")(Probe.gbabs(tr, train, cfg.rho, seed))
      // The replay is only valid if it reproduces runCell's own GBABS call.
      results.slice(ki * paths.size, (ki + 1) * paths.size).flatten.flatten
        .find(c => c.method == "GBABS" && c.ratio != ratioOf(gb)).foreach { c =>
          run.checked(s"replay of runCell $k", Seq(
            s"replayed GBABS ratio ${ratioOf(gb)} differs from runCell's ${c.ratio}: cell seed formula out of date"))
        }
      val rd = tr.all.filter(_.name == "rdgbg.s").last
      val method = mutable.Map[String, Double]("GBABS" -> gbS, "None" -> 0.0)
      (Experiment.coreMethods ++ Experiment.imbalancedMethods).distinct
        .filterNot(method.contains).foreach { m =>
          method(m) = tr.timed(s"replay.$m")(
            Experiment.applyMethod(m, train, spec, cfg, seed, ratioOf(gb)))._2
        }
      tr.count("kdiv.balls", KDivisionGBG.generate(train, cfg.purity, seed).size)
      paths.zipWithIndex.foreach { case ((methods, _), pi) =>
        val cell = cells(ki * paths.size + pi)
        val inner = children.getOrElse(cell.id, Vector.empty).map(_.seconds).sum
        def add(layer: String, v: Double) = attributed((r, layer)) += v
        methods.foreach(m => layerOf(m).foreach(add(_, method(m))))
        if (methods.contains("GBABS")) {
          add("rdgbg.s", rd.seconds)
          add("rdgbg.alloc_mb", rd.allocBytes / 1e6)
          add("gbabs.select_s", gbS - rd.seconds)
        }
        add("exp.unattributed_s", cell.seconds - inner - dataS - methods.map(method).sum)
      }
    }
  }

  private def ratioOf(gb: GBABSResult): Double = if (gb.sampled.isEmpty) 1.0 else gb.samplingRatio

  private def layerOf(method: String): Option[String] = method match {
    case "GGBS"  => Some("ggbs.s")
    case "IGBS"  => Some("igbs.s")
    case "SRS"   => Some("srs.s")
    case "SM"    => Some("smote.s")
    case "BSM"   => Some("bsmote.s")
    case "SMNC"  => Some("smotenc.s")
    case "Tomek" => Some("tomek.s")
    case _       => None
  }

  def finish(): Unit = {
    val res = first.flatten.flatten
    run.quality("acc_mean") = res.map(_.acc).sum / math.max(1, res.size)
    run.quality("gmean_mean") = res.map(_.gmean).sum / math.max(1, res.size)
    if (tr.enabled) {
      def med(name: String) = Main.median(tr.spanSeconds(name).values.toSeq)
      run.layers("exp.cell_s") = med("exp.cell_s")
      Layers.learners.foreach { l =>
        run.layers(s"fit_s.$l") = med(s"fit_s.$l")
        run.layers(s"predict_s.$l") = med(s"predict_s.$l")
      }
      val rounds = attributed.keys.map(_._1).toSeq.distinct
      (Seq("rdgbg.s", "rdgbg.alloc_mb", "gbabs.select_s", "exp.unattributed_s") ++ layerOfAll).foreach { l =>
        run.layers(l) = Main.median(rounds.map(r => attributed((r, l))))
      }
      Probe.coreLayers(run, rdgbgTimed = false)
      run.layers("kdiv.balls") = Main.median(tr.counted("kdiv.balls").values.toSeq)
    }
  }

  private val layerOfAll =
    Seq("ggbs.s", "igbs.s", "srs.s", "smote.s", "bsmote.s", "smotenc.s", "tomek.s")

  /** GBABS's |S| / |D| over the Table IV cells of round 0, weighted by train size. */
  def samplingRatio: Double = {
    val gb = keys.zip(first.grouped(paths.size).map(_.head).toVector).flatMap {
      case (k, Some(res)) => res.find(_.method == "GBABS").map(c => (c.ratio * trainSize(k), trainSize(k).toDouble))
      case _              => None
    }
    if (gb.isEmpty) 0.0 else gb.map(_._1).sum / gb.map(_._2).sum
  }
}
