package repro

import java.io.{ByteArrayOutputStream, DataOutputStream}
import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Point
import scala.io.Source
import scala.util.Random

/** Small deterministic datasets shared by the unit suites. */
object TestData {

  /** Build points from (coordinates, label) rows with sequential ids. */
  def pts(rows: (Seq[Double], Int)*): Vector[Point] =
    rows.zipWithIndex.map { case ((x, y), i) => Point(x.toArray, y, i.toLong) }.toVector

  /** 1D points from (x, label) pairs. */
  def pts1d(rows: (Double, Int)*): Vector[Point] =
    rows.zipWithIndex.map { case ((x, y), i) => Point(Array(x), y, i.toLong) }.toVector

  /** Two-class rows whose third (id 2) is shorter than the first. */
  def ragged: Vector[Point] = pts((Seq(0.0, 0.0), 0), (Seq(1.0, 1.0), 1), (Seq(2.0), 0), (Seq(3.0), 1))

  /** The values that no learner or sampler accepts as a feature. */
  val nonFinite: Seq[Double] = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)

  /** Two-class rows whose third (id 2) holds `bad`. */
  def holding(bad: Double): Vector[Point] =
    pts((Seq(0.0, 0.0), 0), (Seq(1.0, 1.0), 1), (Seq(2.0, bad), 0), (Seq(bad, 3.0), 1))

  /** The lines of test resource `name`, without blank and `#` comment lines. */
  def golden(name: String): Vector[String] = {
    val src = Source.fromResource(name)
    try src.getLines().filterNot(l => l.isEmpty || l.startsWith("#")).toVector finally src.close()
  }

  /** SHA-256, in lower-case hex, of the bytes `write` puts on a data stream. */
  def sha256(write: DataOutputStream => Unit): String = {
    val bytes = new ByteArrayOutputStream
    val out = new DataOutputStream(bytes)
    write(out)
    out.flush()
    MessageDigest.getInstance("SHA-256").digest(bytes.toByteArray).map(b => f"${b & 0xff}%02x").mkString
  }

  /** Points as the (id, features, label) DataFrame that `SparkGBABS` reads. */
  def pointsToDF(spark: SparkSession, pts: Seq[Point]): DataFrame = {
    import spark.implicits._
    pts.map(pt => (pt.id, pt.features.toSeq, pt.label)).toDF("id", "features", "label")
  }

  /** Two well-separated Gaussian blobs in `dim` dimensions. */
  def twoBlobs(n: Int, dim: Int = 2, sep: Double = 6.0, seed: Long = 1): Vector[Point] = {
    val rng = new Random(seed)
    val out = Vector.newBuilder[Point]
    var id = 0L
    for (cls <- 0 to 1; _ <- 0 until n / 2) {
      val x = Array.tabulate(dim)(d => (if (d == 0) cls * sep else 0.0) + rng.nextGaussian())
      out += Point(x, cls, id); id += 1
    }
    out.result()
  }

  /** `k` Gaussian blobs, one per class, centers on a circle of radius `sep`. */
  def blobs(k: Int, nPerClass: Int, dim: Int = 2, sep: Double = 8.0, seed: Long = 2): Vector[Point] = {
    val rng = new Random(seed)
    val out = Vector.newBuilder[Point]
    var id = 0L
    for (cls <- 0 until k; _ <- 0 until nPerClass) {
      val angle = 2 * math.Pi * cls / k
      val cx = sep * math.cos(angle); val cy = sep * math.sin(angle)
      val x = Array.tabulate(dim) {
        case 0 => cx + rng.nextGaussian()
        case 1 => cy + rng.nextGaussian()
        case _ => rng.nextGaussian()
      }
      out += Point(x, cls, id); id += 1
    }
    out.result()
  }
}
