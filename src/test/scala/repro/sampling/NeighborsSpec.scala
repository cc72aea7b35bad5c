package repro.sampling

import repro.core.{Neighbors, Point}
import repro.{SparkSpec, TestData}

/** `repro.core.Neighbors` as SMOTE, Borderline-SMOTE and Tomek links query
  * it: neighbours of a pool row by (squared distance, id), the row itself
  * excluded.
  */
class NeighborsSpec extends SparkSpec {

  private def kNearest(pool: Vector[Point], i: Int, k: Int): Vector[Long] =
    Neighbors.kNearest(Neighbors.rows(pool), pool(i).dim, pool(i).features, k, pool.map(_.id).toArray, exclude = i)
      .map(pool(_).id).toVector

  /** Tomek links' query: the row of the single nearest neighbour, -1 if none. */
  private def nearestIndex(pool: Vector[Point], i: Int): Int =
    Neighbors.kNearest(Neighbors.rows(pool), pool(i).dim, pool(i).features, 1, pool.map(_.id).toArray, exclude = i)
      .headOption.getOrElse(-1)

  private val line = TestData.pts1d((0.0, 0), (1.0, 0), (2.0, 1), (5.0, 1), (9.0, 0))

  test("kNearest returns the k closest points in order") {
    assert(kNearest(line, 0, 2) == Vector(1L, 2L))
  }

  test("kNearest excludes the query point itself") {
    assert(!kNearest(line, 2, 4).contains(2L))
  }

  test("kNearest caps at pool size minus one") {
    assert(kNearest(line, 0, 100).size == 4)
  }

  test("kNearest breaks distance ties by id") {
    val sym = TestData.pts1d((0.0, 0), (-1.0, 0), (1.0, 0))
    assert(kNearest(sym, 0, 1) == Vector(1L))
  }

  test("nearestIndex finds the mutual neighbor structure") {
    assert(nearestIndex(line, 0) == 1)
    assert(nearestIndex(line, 1) == 0)
    assert(nearestIndex(line, 2) == 1)
  }

  test("nearestIndex of a 2-point pool is the other point") {
    val two = TestData.pts1d((0.0, 0), (3.0, 1))
    assert(nearestIndex(two, 0) == 1)
    assert(nearestIndex(two, 1) == 0)
  }

  test("kNearest on an empty pool (only self) is empty") {
    assert(kNearest(Vector(line(0)), 0, 3).isEmpty)
  }
}
