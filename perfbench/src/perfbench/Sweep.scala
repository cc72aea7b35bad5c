package perfbench

import repro.core.{GBABS, GBABSResult}
import repro.data.DatasetGen

/** Scaling sweep of `GBABS.run` (rho = 5) at 20 % label noise: wall time,
  * allocation and ball statistics for each dataset and size, one call per
  * point after one warm-up call. Not part of the gated benchmark.
  *
  * Argument: the output file (default perfbench/sweep.json).
  */
object Sweep {
  private val seed = 1L
  private val sizes = Vector(1500, 3000, 6000, 12000)
  /** S5, S8, S10 and S13. */
  private val specs = Vector(4, 7, 9, 12)

  def main(args: Array[String]): Unit = {
    val out = java.nio.file.Paths.get(args.headOption.getOrElse("perfbench/sweep.json"))

    GBABS.run(Inputs.noisy(specs.head, sizes.head, seed), Inputs.Rho, seed)
    // A size above a dataset's sample count is capped to it; it runs once.
    val rows = for (idx <- specs; n <- sizes.map(math.min(_, DatasetGen.specs(idx).n)).distinct) yield {
      val spec = DatasetGen.specs(idx)
      val data = Inputs.noisy(idx, n, seed)
      val a0 = Jvm.threadAllocated
      val t0 = System.nanoTime()
      val res = GBABS.run(data, Inputs.Rho, seed)
      val s = (System.nanoTime() - t0) / 1e9
      val row = point(spec.id, data.head.dim, data.size, s, (Jvm.threadAllocated - a0) / 1e6, res)
      Console.err.println(row)
      row
    }
    val cpus = Runtime.getRuntime.availableProcessors
    val json =
      s"""{\n  "what": "GBABS.run (rho = ${Inputs.Rho}) at ${(Inputs.Noise * 100).round} % label noise, one call per point after one warm-up call, single thread",\n""" +
      s"""  "seed": $seed,\n  "cpus": $cpus,\n  "java": "${System.getProperty("java.version")}",\n""" +
      s"""  "points": [\n    ${rows.mkString(",\n    ")}\n  ]\n}\n"""
    java.nio.file.Files.write(out, json.getBytes("UTF-8"))
    println(out)
  }

  private def point(id: String, p: Int, n: Int, s: Double, allocMb: Double, res: GBABSResult): String = {
    val orphans = res.balls.count(_.isOrphan)
    f"""{"dataset": "$id", "p": $p, "n": $n, "run_s": $s%.3f, "alloc_mb": $allocMb%.1f, """ +
      f""""balls": ${res.balls.size}, "orphan_balls": $orphans, """ +
      f""""orphan_share": ${orphans.toDouble / math.max(1, res.balls.size)}%.4f, """ +
      f""""orphan_sample_share": ${orphans.toDouble / n}%.4f, "noise": ${res.noise.size}, """ +
      f""""borderline_balls": ${res.borderlineIdx.size}, "sampled": ${res.sampled.size}, """ +
      f""""sampling_ratio": ${res.samplingRatio}%.4f}"""
  }
}
