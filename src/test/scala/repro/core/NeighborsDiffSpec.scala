package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.ml.{KNNModel, KNNModelReference}
import repro.sampling.NeighborsReference

/** Differential gate for the nearest-neighbour kernel: every query the
  * samplers and the kNN learner make must return what the searches it
  * replaced returned (`NeighborsReference`, `KNNModelReference`, and GGBS's
  * `minBy` over (squared distance, id)).
  */
class NeighborsDiffSpec extends SparkSpec {
  import RDGBGDiffSpec.{Layout, cases, duplicated, quantized}

  private def check(name: String, prop: Prop, tests: Int): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(20250418L), prop)
    assert(res.passed, s"$name: ${Pretty.pretty(res)}")
  }

  /** Pools with unique shuffled ids: quantized tie-heavy features, p = 1,
    * duplicate coordinates with conflicting labels, and a pool holding only
    * the query.
    */
  private val pools: Gen[Vector[Point]] =
    cases(Gen.oneOf(quantized, quantized.map(_.copy(p = 1)), duplicated, Gen.const(Layout(1, 2, 1, 3)))).map(_._1)

  /** A pool, k from 0 to beyond the pool size, and a quantized query that
    * is not a pool row.
    */
  private val queries: Gen[(Vector[Point], Int, Array[Double])] =
    for {
      pool <- pools
      k <- Gen.choose(0, pool.size + 2)
      q <- Gen.listOfN(pool.head.dim, Gen.choose(0, 4).map(_.toDouble))
    } yield (pool, k, q.toArray)

  test("property: neighbour lists, nearest index, surface point and kNN votes equal the references") {
    check("kernel", Prop.forAllNoShrink(queries) { case (pool, k, q) =>
      val rows = Neighbors.rows(pool); val ids = pool.map(_.id).toArray; val p = pool.head.dim
      val lists = pool.indices.forall { i =>
        Neighbors.kNearest(rows, p, pool(i).features, k, ids, exclude = i).map(pool).toVector ==
          NeighborsReference.kNearest(pool(i), pool, k) &&
          Neighbors.kNearest(rows, p, pool(i).features, 1, ids, exclude = i).headOption.getOrElse(-1) ==
          NeighborsReference.nearestIndex(pool, i)
      }
      val surface =
        pool(Neighbors.kNearest(rows, p, q, 1, ids)(0)) == pool.minBy(pt => (Point.sqDist(pt.features, q), pt.id))
      val kk = math.max(1, k)
      val model = new KNNModel(pool, kk); val reference = new KNNModelReference(pool, kk)
      val votes = (q +: pool.map(_.features)).forall(x => model.predict(x) == reference.predict(x))
      lists && surface && votes
    }, 500)
  }

  test("property: sqDist at row offsets equals Point.sqDist bit for bit") {
    val gen = for {
      p <- Gen.choose(0, 6)
      a <- Gen.listOfN(2 * p, Gen.choose(-1e3, 1e3))
      b <- Gen.listOfN(p, Gen.choose(-1e3, 1e3))
    } yield (p, a.toArray, b.toArray)
    check("sqDist", Prop.forAllNoShrink(gen) { case (p, a, b) =>
      def bits(v: Double) = java.lang.Double.doubleToRawLongBits(v)
      val want = bits(Point.sqDist(a.slice(p, 2 * p), b))
      bits(Neighbors.sqDist(a, p, b, 0, p)) == want && bits(Neighbors.sqDist(b, 0, a, p, p)) == want
    }, 300)
  }

  test("offer keeps the k smallest by (d, key) in order and rejects what does not come before the last kept") {
    val d = Array(3.0, 1.0, 2.0, 1.0, 2.0)
    val key = Array(0L, 9L, 5L, 2L, 4L)
    val buf = new Array[Int](3); val bufD = new Array[Double](3)
    var size = 0
    for (j <- d.indices) size = Neighbors.offer(buf, bufD, size, 3, j, d(j), key)
    assert(size == 3 && buf.toVector == Vector(3, 1, 4))
    assert(Neighbors.offer(buf, bufD, size, 3, 2, d(2), key) == 3 && buf.toVector == Vector(3, 1, 4))
    assert(Neighbors.offer(buf, bufD, size, 3, 4, d(4), key) == 3 && buf.toVector == Vector(3, 1, 4))
    assert(Neighbors.offer(new Array[Int](0), new Array[Double](0), 0, 0, 0, d(0), key) == 0)
  }

  test("kNearest rejects a query of the wrong dimension") {
    intercept[IllegalArgumentException] { Neighbors.kNearest(Array(0.0, 1.0), 1, Array(0.0, 0.0), 1, Array(0L, 1L)) }
  }
}
