package repro.core

import repro.{SparkSpec, TestData}

class GranularBallSpec extends SparkSpec {

  private def ball1d(center: Double, r: Double, label: Int, xs: (Double, Int)*): GranularBall =
    GranularBall(Array(center), r, label, TestData.pts1d(xs: _*))

  test("size counts contained samples") {
    assert(ball1d(0, 1, 0, (0.0, 0), (0.5, 0)).size == 2)
  }

  test("orphan means zero radius") {
    assert(ball1d(0, 0, 0, (0.0, 0)).isOrphan)
    assert(!ball1d(0, 1, 0, (0.0, 0)).isOrphan)
  }

  test("purity of a pure ball is 1.0") {
    assert(ball1d(0, 1, 0, (0.0, 0), (0.5, 0)).purity === 1.0)
  }

  test("purity of a mixed ball") {
    assert(ball1d(0, 1, 0, (0.0, 0), (0.5, 0), (0.6, 1), (0.7, 1)).purity === 0.5)
  }

  test("purity of an empty ball is 1.0 by convention") {
    assert(GranularBall(Array(0.0), 1.0, 0, Vector.empty).purity === 1.0)
  }

  test("covers detects contained samples") {
    assert(ball1d(0, 1, 0, (0.5, 0), (-0.9, 0)).covers())
    assert(!ball1d(0, 1, 0, (1.5, 0)).covers())
  }

  test("overlaps is symmetric and distance-based") {
    val a = ball1d(0, 1, 0, (0.0, 0))
    val b = ball1d(1.5, 1, 1, (1.5, 1))
    val c = ball1d(3.0, 1, 1, (3.0, 1))
    assert(a.overlaps(b) && b.overlaps(a))
    assert(!a.overlaps(c) && !c.overlaps(a))
  }

  test("tangent balls do not overlap") {
    val a = ball1d(0, 1, 0, (0.0, 0))
    val b = ball1d(2.0, 1, 1, (2.0, 1))
    assert(!a.overlaps(b))
  }

  test("sampleBalls takes a ball's min and max member per dimension") {
    val b = GranularBall(Array(0.0, 0.0), 2.0, 0,
      TestData.pts((Seq(-1.0, 0.5), 0), (Seq(1.0, -0.5), 0), (Seq(0.0, 1.5), 0)))
    assert(GBABSSpec.extremeIds(b, 0) == ((1L, 0L))) // x: max 1.0, min -1.0
    assert(GBABSSpec.extremeIds(b, 1) == ((2L, 1L))) // y: max 1.5, min -0.5
  }

  test("meanBall center is the sample mean") {
    val b = GranularBall.meanBall(TestData.pts1d((0.0, 0), (2.0, 0), (4.0, 0)))
    assert(b.center(0) === 2.0)
  }

  test("meanBall radius is the mean distance to center") {
    val b = GranularBall.meanBall(TestData.pts1d((0.0, 0), (2.0, 0), (4.0, 0)))
    assert(math.abs(b.radius - 4.0 / 3.0) < 1e-12)
  }

  test("meanBall label is the majority class") {
    val b = GranularBall.meanBall(TestData.pts1d((0.0, 1), (1.0, 1), (2.0, 0)))
    assert(b.label == 1)
  }

  test("meanBall on empty input is rejected") {
    intercept[IllegalArgumentException] { GranularBall.meanBall(Vector.empty) }
  }

  test("meanBall of Eq.1 can leave samples outside the radius") {
    // Heavily clustered mass near 0 plus one far point: mean radius < max dist.
    val b = GranularBall.meanBall(TestData.pts1d((0.0, 0), (0.1, 0), (0.2, 0), (10.0, 0)))
    assert(!b.covers())
  }
}
