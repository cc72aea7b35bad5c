package perfbench

import repro.core.{GBABS, GBABSResult, Point}
import scala.collection.mutable

/** `rdgbg-noisy`: `GBABS.run` (rho = 5) on S5 (p = 2), S8 (p = 16) and S13
  * (p capped at 48), each at n = 1500 with 20 % label noise. A round is one
  * call per dataset, in that order, on the driver thread. RD-GBG does almost
  * all of the work.
  */
final class RdgbgNoisy(run: Run) extends Workload {
  private val specIdx = Vector(4, 7, 12)
  private val N = 1500
  private val seed = run.opts.seed
  private val tr = run.tracer

  private var data = Vector.empty[Vector[Point]]
  private var results = Vector.empty[Option[GBABSResult]]
  private val firstIds = mutable.Map.empty[Int, Set[Long]]
  private var ratio = 0.0

  def setup(): Unit = {
    data = specIdx.map(i => run.generate(Inputs.noisy(i, N, seed)))
    // Warm-up: one untimed call per dataset; the first calls of a cold JVM
    // run about twice as long as the later ones.
    data.foreach(d => GBABS.run(d, Inputs.Rho, seed))
  }

  private def call(d: Vector[Point]): GBABSResult =
    if (tr.enabled) Probe.gbabs(tr, d, Inputs.Rho, seed) else GBABS.run(d, Inputs.Rho, seed)

  def round(r: Int): Unit =
    results = data.indices.toVector.map(k => run.attempt(s"GBABS.run ${name(k)}")(call(data(k))))

  private def name(k: Int) = repro.data.DatasetGen.specs(specIdx(k)).id

  def check(r: Int): Unit = results.zipWithIndex.foreach {
    case (Some(res), k) =>
      val ids = res.sampled.map(_.id).toSet
      firstIds.get(k) match {
        case None =>
          run.checked(s"GBABS.run ${name(k)}", Checks.gbabs(data(k), res))
          firstIds(k) = ids
        case Some(first) =>
          run.checked(s"GBABS.run ${name(k)} round $r",
            if (ids == first) Nil else Seq("sampled ids differ from round 0 at the same seed"))
      }
      if (r == 0) ratio += res.sampled.size.toDouble / data.map(_.size).sum
    case (None, _) =>
  }

  def finish(): Unit = {
    // A single round cannot show determinism: repeat each call once.
    if (run.roundSeconds.size == 1) {
      tr.round = 1; round(1); check(1)
    }
    if (tr.enabled) Probe.coreLayers(run, rdgbgTimed = true)
  }

  def samplingRatio: Double = ratio
}
