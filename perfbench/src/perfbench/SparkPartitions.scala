package perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{GBABS, GBABSResult, Point, SparkGBABS}
import scala.collection.mutable
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}

/** Task and job figures of the timed Spark jobs, from the listener bus. */
final class TaskListener extends SparkListener {
  final case class Task(startMs: Long, endMs: Long, durationS: Double, gcS: Double, resultBytes: Long)
  final case class Job(round: Int, var startMs: Long, var endMs: Long = -1L,
                       tasks: mutable.ArrayBuffer[Task] = mutable.ArrayBuffer.empty)

  private val jobs = mutable.Map.empty[Int, Job]
  private val stageToJob = mutable.Map.empty[Int, Int]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    val round = if (group.startsWith("round-")) group.drop(6).toInt else -1
    jobs(e.jobId) = Job(round, e.time)
    e.stageIds.foreach(s => stageToJob(s) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageToJob.get(e.stageId).flatMap(jobs.get).foreach { j =>
      val m = e.taskMetrics
      j.tasks += Task(e.taskInfo.launchTime, e.taskInfo.finishTime, e.taskInfo.duration / 1e3,
        if (m == null) 0.0 else m.jvmGCTime / 1e3, if (m == null) 0L else m.resultSize)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  /** Jobs of a round, once the bus has delivered all their events. */
  def awaitRound(round: Int, timeoutMs: Long = 10000): Seq[Job] = {
    val deadline = System.currentTimeMillis() + timeoutMs
    def done = synchronized {
      val js = jobs.values.filter(_.round == round).toSeq
      if (js.nonEmpty && js.forall(_.endMs >= 0)) Some(js.map(j => j.copy(tasks = j.tasks.clone())))
      else None
    }
    var got = done
    while (got.isEmpty && System.currentTimeMillis() < deadline) { Thread.sleep(2); got = done }
    got.getOrElse(Nil)
  }
}

/** `spark-partitions`: `SparkGBABS.sample` on S10, n = 6000 with 20 %
  * label noise, input cached in 4 partitions, on `local[4]`. A round is one
  * job whose sampled rows are collected on the driver; the job waits for its
  * slowest of 4 concurrent RD-GBG tasks.
  */
final class SparkPartitions(run: Run) extends Workload {
  private val SpecIdx = 9
  private val N = 6000
  private val Parts = 4
  private val seed = run.opts.seed
  private val tr = run.tracer

  private var spark: SparkSession = _
  private var input: DataFrame = _
  private var byId = Map.empty[Long, Int]
  private var partitions = Vector.empty[Vector[Point]]
  private val listener = new TaskListener
  private var rows: Option[Vector[(Long, Int)]] = None
  private var reference = Vector.empty[GBABSResult]
  private var firstIds = Set.empty[Long]

  def setup(): Unit = {
    val t0 = System.nanoTime()
    val dir = run.opts.outDir.toAbsolutePath
    spark = SparkSession.builder
      .master(s"local[$Parts]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", dir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", dir.resolve("spark-warehouse").toString)
      .config("spark.sql.shuffle.partitions", Parts.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    run.layers("spark.session_s") = (System.nanoTime() - t0) / 1e9
    if (tr.enabled) spark.sparkContext.addSparkListener(listener)

    val session = spark
    import session.implicits._
    val data = run.generate(Inputs.noisy(SpecIdx, N, seed))
    byId = data.map(p => p.id -> p.label).toMap
    input = data.map(p => (p.id, p.features.toSeq, p.label)).toDF("id", "features", "label")
      .repartition(Parts).cache()
    input.count()
    partitions = SparkGBABS.asRows(input).rdd
      .mapPartitionsWithIndex((i, it) => Iterator(i -> it.map(r => Point(r.features, r.label, r.id)).toVector))
      .collect().sortBy(_._1).map(_._2).toVector
    run.layers("spark.single_class_parts") = partitions.count(_.map(_.label).distinct.size <= 1).toDouble

    // Warm-up: the reference for the output check is GBABS.run over the same
    // partitions with seed + partitionId, one thread per partition, which
    // also compiles the RD-GBG code the tasks run.
    implicit val ec: ExecutionContext = ExecutionContext.global
    reference = Await.result(Future.sequence(partitions.zipWithIndex.map { case (pts, pid) =>
      Future(GBABS.run(pts, Inputs.Rho, seed + pid))
    }), Duration.Inf)
  }

  def round(r: Int): Unit = {
    spark.sparkContext.setJobGroup(s"round-$r", "timed", interruptOnCancel = false)
    rows = run.attempt("SparkGBABS.sample")(
      SparkGBABS.sample(input, Inputs.Rho, seed).collect().toVector.map(row => (row.getLong(0), row.getInt(2))))
  }

  def check(r: Int): Unit = {
    rows.foreach { got =>
      val ids = got.map(_._1).toSet
      if (r == 0) {
        val want = reference.flatMap(_.sampled.map(_.id)).toSet
        run.checked("SparkGBABS.sample", Checks.sampled(byId, got) ++
          (if (ids == want) Nil else Seq(s"${ids.size} sampled ids, GBABS.run per partition gives ${want.size}")))
        firstIds = ids
        if (tr.enabled) reference.foreach(Probe.countStats(tr, _))
      } else {
        run.checked(s"SparkGBABS.sample round $r",
          if (ids == firstIds) Nil else Seq("sampled ids differ from round 0"))
      }
    }
    if (tr.enabled) spanJobs(r)
  }

  private val perRound = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]

  private def spanJobs(r: Int): Unit = {
    val jobs = listener.awaitRound(r)
    val tasks = jobs.flatMap(_.tasks)
    val durations = tasks.map(_.durationS).sorted
    val jobS = jobs.map(j => (j.endMs - j.startMs) / 1e3).sum
    val maxS = if (durations.isEmpty) 0.0 else durations.last
    val medS = Main.median(durations)
    val clockNs = System.nanoTime() - System.currentTimeMillis() * 1000000L
    def ns(ms: Long) = ms * 1000000L + clockNs
    jobs.foreach { j =>
      val id = tr.record("spark.job", r, ns(j.startMs), ns(j.endMs))
      j.tasks.foreach(t => tr.record("spark.task", r, ns(t.startMs), ns(t.endMs), id))
    }
    Seq(
      "spark.job_s" -> jobS,
      "spark.tasks" -> tasks.size.toDouble,
      "spark.task_s_sum" -> durations.sum,
      "spark.task_s_max" -> maxS,
      "spark.task_skew" -> (if (medS > 0) maxS / medS else 0.0),
      "spark.task_gc_s" -> tasks.map(_.gcS).sum,
      "spark.result_mb" -> tasks.map(_.resultBytes).sum / 1e6,
      "spark.driver_s" -> (jobS - maxS),
    ).foreach { case (k, v) => perRound.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v }
  }

  def finish(): Unit =
    if (tr.enabled) {
      perRound.foreach { case (k, vs) => run.layers(k) = Main.median(vs.toSeq) }
      Probe.coreLayers(run, rdgbgTimed = false)
    }

  def samplingRatio: Double = if (firstIds.isEmpty) 0.0 else firstIds.size.toDouble / N

  override def close(): Unit = if (spark != null) spark.stop()
}
