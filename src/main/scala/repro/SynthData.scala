package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Spark SQL data generators for the GBABS-on-Spark path. */
object SynthData {

  /** Labeled Gaussian classification data, generated on the cluster.
    *
    * One Spark-SQL pipeline per class: `counts(c)` rows with features
    * `centroids(c)(d) + randn`. Output schema matches the sampling API:
    * (id: long — globally unique, features: array<double>, label: int).
    * Used by the GBABS-on-Spark path; the local analog generators live in
    * `repro.data.DatasetGen`.
    */
  def gaussianClasses(spark: SparkSession, counts: Seq[Int],
                      centroids: Seq[Seq[Double]], seed: Long = 6): DataFrame = {
    require(counts.nonEmpty && counts.size == centroids.size,
      s"need one centroid per class: ${counts.size} counts vs ${centroids.size} centroids")
    val p = centroids.head.size
    require(centroids.forall(_.size == p), "all centroids must share dimensionality")
    val offsets = counts.scanLeft(0L)(_ + _)
    val perClass = counts.indices.map { c =>
      spark.range(counts(c)).select(
        (col("id") + offsets(c)) as "id",
        array((0 until p).map(d =>
          lit(centroids(c)(d)) + randn(seed + c * 1000 + d)): _*) as "features",
        lit(c).cast(IntegerType) as "label",
      )
    }
    perClass.reduce(_ unionAll _)
  }

  /** Bridge local labeled points into the (id, features, label) DataFrame
    * schema consumed by `repro.core.SparkGBABS`.
    */
  def pointsToDF(spark: SparkSession, pts: Seq[repro.core.Point]): DataFrame = {
    import spark.implicits._
    pts.map(pt => (pt.id, pt.features.toSeq, pt.label)).toDF("id", "features", "label")
  }
}
