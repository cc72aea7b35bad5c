package perfbench

import repro.core.{GBABS, GBABSResult, Point, RDGBG}
import repro.data.DatasetGen

/** Workload inputs, generated from the seed alone. */
object Inputs {
  val Rho = 5
  val MaxP = 48
  val Noise = 0.2

  /** Dataset `specIdx` at `n` samples with 20 % label noise, standardised. */
  def noisy(specIdx: Int, n: Int, seed: Long): Vector[Point] = {
    val clean = DatasetGen.generate(DatasetGen.specs(specIdx), n, MaxP, seed)
    val noisy = DatasetGen.withNoise(clean, Noise, seed * 7 + specIdx)
    DatasetGen.standardize(noisy, Vector.empty)._1
  }
}

/** Calls into the core layers, one span per public function. */
object Probe {

  /** `GBABS.run` made of its two layer calls, `RDGBG.generate` then
    * `GBABS.sampleBalls`, with the same single-class rule, so each layer
    * gets its own span and counts.
    */
  def gbabs(tr: Tracer, data: Vector[Point], rho: Int, seed: Long): GBABSResult = {
    val gen = tr.span("rdgbg.s")(RDGBG.generate(data, rho, seed))
    val res =
      if (gen.balls.map(_.label).distinct.size <= 1)
        GBABSResult(gen.balls.flatMap(_.points), gen.balls, gen.noise, Set.empty, data.size)
      else {
        val (sampled, borderline) =
          tr.span("gbabs.select_s")(GBABS.sampleBalls(gen.balls, data.head.dim))
        GBABSResult(sampled, gen.balls, gen.noise, borderline, data.size)
      }
    countStats(tr, res)
    res
  }

  /** Ball, orphan, noise and borderline counts read from a result object. */
  def countStats(tr: Tracer, res: GBABSResult): Unit = {
    tr.count("points", res.originalSize)
    tr.count("rdgbg.balls", res.balls.size)
    tr.count("rdgbg.orphan_balls", res.balls.count(_.isOrphan))
    tr.count("rdgbg.orphan_samples", res.balls.filter(_.isOrphan).map(_.size).sum)
    tr.count("rdgbg.noise", res.noise.size)
    tr.count("gbabs.borderline_balls", res.borderlineIdx.size)
    tr.count("gbabs.sampled", res.sampled.size)
  }

  /** Per-layer figures of the core layers from the per-round counts and spans. */
  def coreLayers(run: Run, rdgbgTimed: Boolean): Unit = {
    val tr = run.tracer
    def med(m: Map[Int, Double]) = Main.median(m.values.toSeq)
    def share(a: String, b: String) = {
      val num = tr.counted(a); val den = tr.counted(b)
      Main.median(den.keys.toSeq.map(r => if (den(r) == 0) 0.0 else num.getOrElse(r, 0.0) / den(r)))
    }
    if (rdgbgTimed) {
      run.layers("rdgbg.s") = med(tr.spanSeconds("rdgbg.s"))
      run.layers("rdgbg.alloc_mb") = med(tr.spanAllocMb("rdgbg.s"))
      run.layers("gbabs.select_s") = med(tr.spanSeconds("gbabs.select_s"))
    }
    Seq("rdgbg.balls", "rdgbg.orphan_balls", "rdgbg.noise", "gbabs.borderline_balls", "gbabs.sampled")
      .foreach(k => run.layers(k) = med(tr.counted(k)))
    run.layers("rdgbg.orphan_share") = share("rdgbg.orphan_balls", "rdgbg.balls")
    run.layers("rdgbg.orphan_sample_share") = share("rdgbg.orphan_samples", "points")
    run.layers("gbabs.borderline_share") = share("gbabs.borderline_balls", "rdgbg.balls")
  }
}

/** Output checks. Each returns the problems found; empty means the output passed. */
object Checks {

  /** Ball invariants and sample-set properties of one GBABS result over `data`. */
  def gbabs(data: Vector[Point], res: GBABSResult): Seq[String] = {
    val out = Vector.newBuilder[String]
    val balls = res.balls
    balls.indices.find(i => balls(i).purity != 1.0).foreach(i => out += s"ball $i is impure")
    balls.indices.find(i => !balls(i).covers()).foreach(i => out += s"ball $i does not cover its samples")
    // Two radius-0 balls cannot overlap, so only pairs with a proper ball are tested.
    val proper = balls.indices.filterNot(i => balls(i).isOrphan)
    proper.iterator.flatMap(i => balls.indices.iterator.filter(j => j != i && balls(i).overlaps(balls(j))).map((i, _)))
      .nextOption().foreach(pair => out += s"balls $pair overlap")
    val byId = data.map(p => p.id -> p.label).toMap
    val kept = balls.flatMap(_.points.map(_.id)) ++ res.noise.map(_.id)
    if (kept.size != kept.distinct.size) out += "a sample is in two balls, or in a ball and the noise"
    if (kept.toSet != byId.keySet) out += s"balls and noise cover ${kept.toSet.size} ids, data has ${byId.size}"
    out ++= sampled(byId, res.sampled.map(p => (p.id, p.label)))
    out.result()
  }

  /** A sample is a subset of the data by id and label, with no duplicate id. */
  def sampled(byId: Map[Long, Int], rows: Seq[(Long, Int)]): Seq[String] = {
    val out = Vector.newBuilder[String]
    if (rows.map(_._1).distinct.size != rows.size) out += "the sample holds a duplicate id"
    rows.find { case (id, label) => !byId.get(id).contains(label) }
      .foreach(r => out += s"sampled row $r is not in the data")
    out.result()
  }
}
