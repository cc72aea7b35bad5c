package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer

/** JVM counters read around timed calls. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated by every thread of the JVM so far, exited threads included. */
  def totalAllocated: Long = threads.getTotalThreadAllocatedBytes

  /** Bytes allocated by the calling thread so far. */
  def threadAllocated: Long = threads.getCurrentThreadAllocatedBytes
}

/** One traced interval. `parent` is the id of the enclosing span, or -1.
  * `allocBytes` is what the recording thread allocated inside the span.
  */
final case class Span(id: Int, parent: Int, name: String, round: Int,
                      startNs: Long, endNs: Long, allocBytes: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder for the harness's own calls into the program.
  *
  * Spans are opened and closed on the driver thread, so nesting is a plain
  * stack; `record` adds spans measured elsewhere (Spark job and task events).
  * Counts are recorded per round next to the spans. Nothing is written until
  * `dump` at the end of the run. A disabled tracer runs bodies unwrapped.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private val counts = ArrayBuffer.empty[(Int, String, Double)]
  private var stack: List[Int] = Nil
  /** Round the next spans and counts belong to; -1 during set-up. */
  var round: Int = -1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = synchronized { spans += null; spans.length - 1 }
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val a0 = Jvm.threadAllocated
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        val a1 = Jvm.threadAllocated
        stack = stack.tail
        synchronized { spans(id) = Span(id, parent, name, round, t0, t1, a1 - a0) }
      }
    }

  /** Run `body` in a span and also return its duration in seconds. */
  def timed[A](name: String)(body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = span(name)(body)
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Add a span measured elsewhere; returns its id. */
  def record(name: String, round: Int, startNs: Long, endNs: Long, parent: Int = -1): Int =
    synchronized { spans += Span(spans.length, parent, name, round, startNs, endNs, 0L); spans.length - 1 }

  def count(name: String, value: Double): Unit =
    if (enabled) synchronized { counts += ((round, name, value)) }

  def all: Vector[Span] = synchronized(spans.filter(_ != null).toVector)

  /** Per-round sums of span seconds, span allocation or counts of one name,
    * for the rounds (>= 0) in which the name occurs.
    */
  def spanSeconds(name: String): Map[Int, Double] = perRound(all.filter(_.name == name).map(s => (s.round, s.seconds)))

  def spanAllocMb(name: String): Map[Int, Double] =
    perRound(all.filter(_.name == name).map(s => (s.round, s.allocBytes / 1e6)))

  def counted(name: String): Map[Int, Double] =
    perRound(synchronized(counts.filter(_._2 == name).toVector).map(c => (c._1, c._3)))

  private def perRound(xs: Vector[(Int, Double)]): Map[Int, Double] =
    xs.filter(_._1 >= 0).groupMapReduce(_._1)(_._2)(_ + _)

  /** Span duration minus the part of it covered by its direct children. */
  def selfSeconds(s: Span, children: Map[Int, Vector[Span]]): Double = {
    val kids = children.getOrElse(s.id, Vector.empty).sortBy(_.startNs)
    var covered = 0L; var reach = s.startNs
    kids.foreach { k =>
      val a = math.max(k.startNs, reach); val b = math.min(k.endNs, s.endNs)
      if (b > a) { covered += b - a; reach = b }
    }
    (s.endNs - s.startNs - covered) / 1e9
  }

  /** Write every span, with its self time, as one JSON object per line. */
  def dump(path: java.nio.file.Path): Unit = {
    val ss = all
    val children = ss.filter(_.parent >= 0).groupBy(_.parent)
    val t0 = if (ss.isEmpty) 0L else ss.map(_.startNs).min
    val lines = ss.map { s =>
      f"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","round":${s.round},""" +
        f""""start_s":${(s.startNs - t0) / 1e9}%.6f,"end_s":${(s.endNs - t0) / 1e9}%.6f,""" +
        f""""self_s":${selfSeconds(s, children)}%.6f,"alloc_mb":${s.allocBytes / 1e6}%.3f}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}

object Tracer {
  /** Seconds one empty span costs on this JVM, measured by recording many. */
  def spanCost(): Double = {
    val t = new Tracer(true)
    val n = 20000
    var i = 0; while (i < n) { t.span("warm")(()); i += 1 }
    val t0 = System.nanoTime()
    i = 0; while (i < n) { t.span("probe")(()); i += 1 }
    (System.nanoTime() - t0) / 1e9 / n
  }
}
