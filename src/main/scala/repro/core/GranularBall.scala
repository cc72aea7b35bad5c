package repro.core

/** A granular ball: a pure (single-label) set of samples with an explicit
  * geometric center and radius.
  *
  * Under RD-GBG the center is an actual sample chosen as a local-density
  * center, the radius is the (restricted) consistent radius, and every
  * contained sample lies within the ball — the redefined GB of the paper,
  * whose geometry exactly covers its samples (unlike the mean-radius GB of
  * Eq.1 that can leave samples outside).
  */
final case class GranularBall(
    center: Array[Double],
    radius: Double,
    label: Int,
    points: Vector[Point],
) extends Serializable {

  /** Number of samples covered by the ball. */
  def size: Int = points.size

  /** Orphan / degenerate ball: a single sample with zero radius. */
  def isOrphan: Boolean = radius == 0.0

  /** Purity of the ball: fraction of samples matching the ball label.
    * RD-GBG balls are pure by construction, so this is 1.0.
    */
  def purity: Double =
    if (points.isEmpty) 1.0 else points.count(_.label == label).toDouble / points.size

  /** True iff every contained sample lies within the radius (plus eps). */
  def covers(eps: Double = 1e-9): Boolean =
    points.forall(p => p.distTo(center) <= radius + eps)

  /** True iff this ball's interior overlaps another ball's interior. */
  def overlaps(other: GranularBall, eps: Double = 1e-9): Boolean =
    Point.dist(center, other.center) < radius + other.radius - eps
}

object GranularBall {
  /** Mean-center / mean-radius ball of Eq.1 — used by the baseline GBG
    * (k-division) of GGBS/IGBS, where samples may fall outside the ball.
    */
  def meanBall(points: Vector[Point]): GranularBall = {
    require(points.nonEmpty, "cannot build a ball from zero samples")
    val p = points.head.dim
    val c = new Array[Double](p)
    points.foreach { pt => var i = 0; while (i < p) { c(i) += pt.features(i); i += 1 } }
    var i = 0; while (i < p) { c(i) /= points.size; i += 1 }
    val r = points.map(_.distTo(c)).sum / points.size
    GranularBall(c, r, Point.mostCommon(points.iterator.map(_.label)), points)
  }
}
