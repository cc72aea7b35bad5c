package repro

import org.apache.spark.sql.functions._

class SynthDataSpec extends SparkSpec {

  test("gaussianClasses produces the requested per-class counts (oracle-checked)") {
    val df = SynthData.gaussianClasses(spark, Seq(40, 25, 10),
      Seq(Seq(0.0, 0.0), Seq(5.0, 0.0), Seq(0.0, 5.0)), seed = 1).cache()
    val sparkAgg = df.groupBy("label").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT label, count(*) AS cnt FROM pts GROUP BY label",
      "pts" -> df.select("id", "label"))
    assert(df.count() == 75)
  }

  test("gaussianClasses ids are globally unique") {
    val df = SynthData.gaussianClasses(spark, Seq(30, 30),
      Seq(Seq(0.0), Seq(4.0)), seed = 2)
    assert(df.select("id").distinct().count() == 60)
  }

  test("gaussianClasses feature arrays have the right dimensionality") {
    val df = SynthData.gaussianClasses(spark, Seq(10, 10),
      Seq(Seq(0.0, 0.0, 0.0), Seq(3.0, 3.0, 3.0)), seed = 3)
    val dims = df.select(size(col("features")) as "d").distinct().collect().map(_.getInt(0)).toSeq
    assert(dims == Seq(3))
  }

  test("gaussianClasses class means approximate the centroids") {
    val df = SynthData.gaussianClasses(spark, Seq(2000, 2000),
      Seq(Seq(0.0), Seq(6.0)), seed = 4)
    val means = df.select(col("label"), element_at(col("features"), 1) as "x")
      .groupBy("label").agg(avg("x") as "mx")
      .collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap
    assert(math.abs(means(0) - 0.0) < 0.2)
    assert(math.abs(means(1) - 6.0) < 0.2)
  }

  test("gaussianClasses rejects mismatched counts/centroids") {
    intercept[IllegalArgumentException] {
      SynthData.gaussianClasses(spark, Seq(10), Seq(Seq(0.0), Seq(1.0)))
    }
  }

  test("gaussianClasses rejects ragged centroids") {
    intercept[IllegalArgumentException] {
      SynthData.gaussianClasses(spark, Seq(10, 10), Seq(Seq(0.0), Seq(1.0, 2.0)))
    }
  }

  test("pointsToDF round-trips points") {
    val pts = TestData.twoBlobs(20, seed = 5)
    val df = SynthData.pointsToDF(spark, pts)
    val back = df.orderBy("id").collect()
    assert(back.length == 20)
    assert(back.map(_.getLong(0)).toSeq == pts.sortBy(_.id).map(_.id))
    assert(back.map(_.getInt(2)).toSeq == pts.sortBy(_.id).map(_.label))
  }
}
