package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}

class SparkGBABSSpec extends SparkSpec {

  private lazy val data = TestData.twoBlobs(120, sep = 8.0, seed = 50)
  private lazy val df = TestData.pointsToDF(spark, data).cache()

  private def ids(sampled: DataFrame): Set[Long] =
    sampled.select("id").collect().map(_.getLong(0)).toSet

  private def bits(xs: Array[Double]): Seq[Long] =
    xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("pointsToDF preserves schema and size") {
    assert(df.columns.toSeq == Seq("id", "features", "label"))
    assert(df.count() == data.size)
  }

  test("pointsToDF round-trips points") {
    val pts = TestData.twoBlobs(20, seed = 5)
    val back = TestData.pointsToDF(spark, pts).orderBy("id").collect()
    assert(back.length == 20)
    assert(back.map(_.getLong(0)).toSeq == pts.sortBy(_.id).map(_.id))
    assert(back.map(_.getInt(2)).toSeq == pts.sortBy(_.id).map(_.label))
  }

  test("sampleExact returns the sequential GBABS result") {
    val local = GBABS.run(data, rho = 5, seed = 42).sampled.map(_.id).toSet
    val viaSpark = ids(SparkGBABS.sampleExact(df, rho = 5, seed = 42))
    assert(viaSpark == local,
      s"spark-exact (${viaSpark.size}) must equal sequential GBABS (${local.size})")
  }

  test("sampled rows are a subset of the input (id, label, features intact)") {
    val sampled = SparkGBABS.sample(df.repartition(4), seed = 1)
    val joined = sampled.as("s").join(df.as("o"), Seq("id"))
      .where(col("s.label") === col("o.label"))
    assert(joined.count() == sampled.count())
  }

  test("per-partition sampling compresses each partition") {
    val sampled = SparkGBABS.sample(df.repartition(2), seed = 2)
    val n = sampled.count()
    assert(n > 0 && n < data.size)
  }

  test("empty input yields an empty sample") {
    val empty = df.where(lit(false))
    assert(SparkGBABS.sample(empty).count() == 0)
  }

  test("single-partition determinism") {
    val a = ids(SparkGBABS.sampleExact(df, seed = 3))
    val b = ids(SparkGBABS.sampleExact(df, seed = 3))
    assert(a == b)
  }

  test("per-class counts of sampleExact match sequential GBABS") {
    val viaSpark = SparkGBABS.sampleExact(df, seed = 4).groupBy("label").count()
      .collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val local = GBABS.run(data, rho = 5, seed = 4).sampled
      .groupBy(_.label).map { case (y, ps) => y -> ps.size.toLong }
    assert(viaSpark == local)
  }

  test("sampled rows keep the input's label and feature bits") {
    val byId = data.map(p => p.id -> p).toMap
    val rows = SparkGBABS.asRows(SparkGBABS.sample(df.repartition(3), seed = 5)).collect()
    assert(rows.nonEmpty)
    rows.foreach { r =>
      val p = byId(r.id)
      assert(r.label == p.label, s"id ${r.id}: label changed")
      assert(bits(r.features) == bits(p.features), s"id ${r.id}: features changed")
    }
  }

  test("multi-partition union is still pure-subset and deduplicated per partition run") {
    val sampled = SparkGBABS.sample(df.repartition(3), seed = 6).select("id")
    val n = sampled.count()
    val distinct = sampled.distinct().count()
    assert(n == distinct, "partitions are disjoint so sampled ids cannot repeat")
  }

  test("multi-partition output equals the union of per-partition GBABS runs") {
    val parts = df.repartition(3).cache()
    val viaSpark = ids(SparkGBABS.sample(parts, seed = 7))
    val perPartition = SparkGBABS.asRows(parts).rdd.mapPartitionsWithIndex { (pid, it) =>
      val pts = it.map(r => Point(r.features, r.label, r.id)).toVector
      if (pts.isEmpty) Iterator.empty
      else GBABS.run(pts, rho = 5, seed = 7 + pid).sampled.iterator.map(_.id)
    }.collect().toSet
    parts.unpersist()
    assert(viaSpark == perPartition)
  }
}
