package perfbench

import java.nio.file.{Path, Paths}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Command-line options. `launchNs` is the wall-clock epoch time, in
  * nanoseconds, at which the launcher started this JVM; set-up time counts
  * from there.
  */
final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                      launchNs: Long, outDir: Path)

/** State of one benchmark run: timings per round, call accounting, metrics. */
final class Run(val opts: Opts) {
  val tracer = new Tracer(opts.trace)
  val roundSeconds = ArrayBuffer.empty[Double]
  val roundAllocMb = ArrayBuffer.empty[Double]
  /** System.nanoTime at the start and end of each round. */
  val roundWindows = ArrayBuffer.empty[(Long, Long)]
  /** Seconds spent generating inputs during set-up (the data layer). */
  var dataGenS = 0.0
  /** Launch to the start of the workload's set-up: JVM boot and class loading. */
  var bootS = 0.0
  var attempted = 0
  var failed = 0
  val problems = ArrayBuffer.empty[String]
  /** Deterministic figures of the outputs, reported beside the timings. */
  val quality = mutable.LinkedHashMap.empty[String, Double]
  /** Per-layer values of a traced run, by metric name. */
  val layers = mutable.LinkedHashMap.empty[String, Double]

  /** Attempt one call into the program; a throw counts as a failed call. */
  def attempt[A](what: String)(call: => A): Option[A] = {
    attempted += 1
    try Some(call)
    catch {
      case e: Exception =>
        failed += 1; problems += s"$what threw $e"; None
    }
  }

  /** Record the problems an output check found for one call. */
  def checked(what: String, found: Seq[String]): Unit =
    if (found.nonEmpty) { failed += 1; problems ++= found.take(3).map(m => s"$what: $m") }

  /** Time one input generation during set-up. */
  def generate[A](body: => A): A = {
    val t0 = System.nanoTime()
    val a = body
    dataGenS += (System.nanoTime() - t0) / 1e9
    a
  }
}

/** A workload: builds inputs from the seed, then runs timed rounds.
  * A round is the workload's fixed unit of work; `run_s` is its median time.
  */
trait Workload {
  /** Build inputs and warm up, once; input generation goes through
    * `run.generate`.
    */
  def setup(): Unit
  /** One timed round: closed-loop calls from the driver thread. */
  def round(r: Int): Unit
  /** Output checks for round `r`, outside the timing. */
  def check(r: Int): Unit
  /** Checks that need every round, and per-layer figures. */
  def finish(): Unit
  /** |S| / |D| over the sampler calls of one round. */
  def samplingRatio: Double
  /** Release what set-up started. */
  def close(): Unit = ()
}

object Main {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def epochNs(): Long = {
    val now = java.time.Instant.now()
    now.getEpochSecond * 1000000000L + now.getNano
  }

  private def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toInt,
      trace = need("trace") == "1",
      launchNs = kv.get("launch-ns").map(_.toLong).getOrElse(epochNs()),
      outDir = Paths.get(kv.getOrElse("out", ".bench_build/perfbench")),
    )
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val run = new Run(opts)
    val w: Workload = opts.workload match {
      case "rdgbg-noisy"      => new RdgbgNoisy(run)
      case "cell-grid"        => new CellGrid(run)
      case "spark-partitions" => new SparkPartitions(run)
      case other => throw new IllegalArgumentException(s"unknown workload: $other")
    }
    val code =
      try { measure(run, w); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally w.close()
    // Exit explicitly so no lingering non-daemon thread keeps the JVM alive.
    System.out.flush()
    sys.exit(code)
  }

  private def measure(run: Run, w: Workload): Unit = {
    val opts = run.opts
    run.bootS = (epochNs() - opts.launchNs) / 1e9
    w.setup()
    // Set-up: launch to the first timed call.
    val setupS = (epochNs() - opts.launchNs) / 1e9

    // Rounds run until another round of the mean length so far would pass
    // the budget; there is always at least one.
    val budgetNs = opts.seconds * 1000000000L
    var timedNs = 0L
    var r = 0
    while (r == 0 || timedNs + timedNs / r <= budgetNs) {
      run.tracer.round = r
      val a0 = Jvm.totalAllocated
      val t0 = System.nanoTime()
      w.round(r)
      val t1 = System.nanoTime()
      val a1 = Jvm.totalAllocated
      timedNs += t1 - t0
      run.roundSeconds += (t1 - t0) / 1e9
      run.roundWindows += ((t0, t1))
      run.roundAllocMb += (a1 - a0) / 1e6
      w.check(r)
      r += 1
    }
    w.finish()
    if (opts.trace) {
      run.layers("data.gen_s") = run.dataGenS
      val spans = run.tracer.all.count(s => run.roundWindows.exists { case (a, b) => s.startNs >= a && s.endNs <= b })
      run.layers("trace.spans") = spans.toDouble / run.roundSeconds.size
      run.layers("trace.run_s") = median(run.roundSeconds.toSeq)
      run.layers("trace.overhead_s") = run.layers("trace.spans") * Tracer.spanCost()
      run.tracer.dump(opts.outDir.resolve(s"trace-${opts.workload}-seed${opts.seed}.jsonl"))
    }
    report(run, setupS, w.samplingRatio)
  }

  private def report(run: Run, setupS: Double, samplingRatio: Double): Unit = {
    val opts = run.opts
    val e2e = Vector(
      ("setup_s", setupS, "s"),
      ("run_s", median(run.roundSeconds.toSeq), "s"),
      ("alloc_mb", median(run.roundAllocMb.toSeq), "MB"),
      ("sampling_ratio", samplingRatio, "ratio"),
    )
    val failedShare = run.failed.toDouble / math.max(1, run.attempted)
    // Human-readable summary first; the last line is the JSON result.
    println(s"workload=${opts.workload} seed=${opts.seed} trace=${if (opts.trace) 1 else 0} " +
      s"rounds=${run.roundSeconds.size} round_s=${fmt(run.roundSeconds)}")
    println(f"  setup parts: boot ${run.bootS}%.3f s, data ${run.dataGenS}%.3f s, " +
      f"rest ${setupS - run.bootS - run.dataGenS}%.3f s")
    e2e.foreach { case (k, v, u) => println(f"  $k%-28s $v%14.6f $u") }
    println(f"  ${"failed_share"}%-28s $failedShare%14.6f ratio (${run.failed}/${run.attempted})")
    run.quality.foreach { case (k, v) => println(f"  $k%-28s $v%14.6f") }
    if (opts.trace) run.layers.foreach { case (k, v) => println(f"  $k%-28s $v%14.6f") }
    run.problems.take(10).foreach(p => println(s"  CHECK FAILED: $p"))

    val metrics: Seq[(String, Double, String)] =
      if (opts.trace) Layers.all.map { case (k, u) => (k, run.layers.getOrElse(k, 0.0), u) } else e2e
    val body = metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    println(s"""{"correct": ${run.failed == 0}, "attempted": ${run.attempted}, "failed": ${run.failed}, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
  }

  private def fmt(xs: collection.Seq[Double]): String = xs.map(x => f"$x%.3f").mkString("[", ", ", "]")

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.math.BigDecimal.valueOf(v).toPlainString
}

/** Every per-layer metric, with its unit. A traced run reports all of them;
  * a layer the workload does not call reports 0.
  */
object Layers {
  val learners: Vector[String] = Vector("DT", "XGBoost", "LightGBM", "kNN", "RF")

  val all: Vector[(String, String)] = Vector(
    "data.gen_s" -> "s",
    "rdgbg.s" -> "s", "rdgbg.alloc_mb" -> "MB", "rdgbg.balls" -> "count",
    "rdgbg.orphan_balls" -> "count", "rdgbg.orphan_share" -> "ratio",
    "rdgbg.orphan_sample_share" -> "ratio", "rdgbg.noise" -> "count",
    "gbabs.select_s" -> "s", "gbabs.borderline_balls" -> "count",
    "gbabs.borderline_share" -> "ratio", "gbabs.sampled" -> "count",
    "spark.session_s" -> "s", "spark.job_s" -> "s", "spark.tasks" -> "count",
    "spark.task_s_sum" -> "s", "spark.task_s_max" -> "s", "spark.task_skew" -> "ratio",
    "spark.task_gc_s" -> "s", "spark.result_mb" -> "MB", "spark.driver_s" -> "s",
    "spark.single_class_parts" -> "count",
    "ggbs.s" -> "s", "igbs.s" -> "s", "kdiv.balls" -> "count",
    "srs.s" -> "s", "smote.s" -> "s", "bsmote.s" -> "s", "smotenc.s" -> "s", "tomek.s" -> "s",
  ) ++ learners.map(l => s"fit_s.$l" -> "s") ++ learners.map(l => s"predict_s.$l" -> "s") ++ Vector(
    "exp.cell_s" -> "s", "exp.unattributed_s" -> "s",
    "trace.run_s" -> "s", "trace.spans" -> "count", "trace.overhead_s" -> "s",
  )
}
