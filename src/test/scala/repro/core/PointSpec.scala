package repro.core

import repro.{SparkSpec, TestData}
import scala.util.Random

class PointSpec extends SparkSpec {

  test("dist is Euclidean") {
    val a = Point(Array(0.0, 0.0), 0, 0)
    val b = Point(Array(3.0, 4.0), 1, 1)
    assert(a.dist(b) === 5.0)
    assert(a.sqDist(b) === 25.0)
  }

  test("dist to self is zero") {
    val a = Point(Array(1.5, -2.5, 3.0), 0, 0)
    assert(a.dist(a) === 0.0)
  }

  test("distTo matches dist on raw coords") {
    val a = Point(Array(1.0, 2.0), 0, 0)
    assert(a.distTo(Array(4.0, 6.0)) === 5.0)
  }

  test("dimension mismatch is rejected") {
    intercept[IllegalArgumentException] {
      Point.sqDist(Array(1.0), Array(1.0, 2.0))
    }
  }

  test("equality and hashCode are id-based") {
    val a = Point(Array(1.0), 0, 7)
    val b = Point(Array(2.0), 1, 7)
    val c = Point(Array(1.0), 0, 8)
    assert(a == b)
    assert(a.hashCode == b.hashCode)
    assert(a != c)
  }

  test("dim reports feature count") {
    assert(Point(Array(1.0, 2.0, 3.0), 0, 0).dim == 3)
  }

  test("property: distance is symmetric and non-negative (100 random pairs)") {
    val rng = new Random(5)
    for (_ <- 0 until 100) {
      val a = Array.fill(4)(rng.nextDouble() * 200 - 100)
      val b = Array.fill(4)(rng.nextDouble() * 200 - 100)
      assert(Point.dist(a, b) >= 0.0)
      assert(math.abs(Point.dist(a, b) - Point.dist(b, a)) < 1e-12)
    }
  }

  test("property: triangle inequality (100 random triples)") {
    val rng = new Random(6)
    for (_ <- 0 until 100) {
      val Seq(a, b, c) = Seq.fill(3)(Array.fill(3)(rng.nextDouble() * 100 - 50))
      assert(Point.dist(a, c) <= Point.dist(a, b) + Point.dist(b, c) + 1e-9)
    }
  }

  test("test fixtures build expected shapes") {
    val two = TestData.twoBlobs(20)
    assert(two.size == 20)
    assert(two.map(_.label).distinct.sorted == Vector(0, 1))
    val three = TestData.blobs(3, 5)
    assert(three.size == 15)
    assert(three.map(_.id).distinct.size == 15)
  }
}
