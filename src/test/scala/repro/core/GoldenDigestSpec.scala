package repro.core

import repro.{SparkSpec, TestData}
import repro.data.DatasetGen

/** `GBABS.run` on all 13 dataset analogs x {0, 0.2} label noise at n = 3000
  * must reproduce the digests in `golden/gbabs-n3000.txt`. They were
  * recorded from the original RD-GBG (the code kept as `RDGBGReference`), so
  * any change to the balls, their order, the noise or the sampled set fails.
  */
class GoldenDigestSpec extends SparkSpec {
  import GoldenDigestSpec._

  private val golden: Vector[String] = TestData.golden("golden/gbabs-n3000.txt")

  test("GBABS.run reproduces the recorded digests at n = 3000") {
    val got = cases.map { case (i, nz) => line(i, nz) }
    assert(got.size == golden.size)
    got.zip(golden).foreach { case (g, want) => assert(g == want) }
  }
}

object GoldenDigestSpec {
  val N = 3000
  val cases: Vector[(Int, Double)] =
    for (i <- DatasetGen.specs.indices.toVector; nz <- Vector(0.0, 0.2)) yield (i, nz)

  /** Standardised dataset `specIdx` at n = 3000 (p capped at 48) with `noise` label noise. */
  def data(specIdx: Int, noise: Double): Vector[Point] = {
    val clean = DatasetGen.generate(DatasetGen.specs(specIdx), N, 48, seed = 7)
    DatasetGen.standardize(DatasetGen.withNoise(clean, noise, 49 + specIdx), Vector.empty)._1
  }

  /** SHA-256 over the ordered ball member ids and radius bits, the noise ids
    * and the sampled ids, each list prefixed by its length.
    */
  def digest(res: GBABSResult): String = TestData.sha256 { out =>
    def ids(ps: Seq[Point]): Unit = { out.writeInt(ps.size); ps.foreach(p => out.writeLong(p.id)) }
    out.writeInt(res.balls.size)
    res.balls.foreach { b => ids(b.points); out.writeLong(java.lang.Double.doubleToRawLongBits(b.radius)) }
    ids(res.noise)
    ids(res.sampled)
  }

  /** One golden line: dataset, noise, counts and digest of `GBABS.run(rho = 5, seed = 42)`. */
  def line(specIdx: Int, noise: Double): String = {
    val res = GBABS.run(data(specIdx, noise), rho = 5, seed = 42)
    s"${DatasetGen.specs(specIdx).id} $noise balls=${res.balls.size} noise=${res.noise.size} " +
      s"sampled=${res.sampled.size} sha256=${digest(res)}"
  }
}
