package repro.gbs

import repro.core.{GranularBall, Neighbors, Point}
import scala.collection.mutable

/** General GB-based Sampling (GGBS), the primary baseline (Xia et al.).
  *
  * Undersampling stage over the k-division ball set:
  *  - a *small* ball (|GB| <= 2p) contributes all of its samples;
  *  - a *large* ball contributes, for each of the 2p intersection points of
  *    its surface with the axis-aligned lines through its center
  *    (c ± r·e_d), the homogeneous sample closest to that point.
  */
object GGBS {

  /** Samples a large ball: nearest homogeneous sample to each of the 2p
    * axis–surface intersection points (deduplicated).
    */
  private[gbs] def sampleLargeBall(ball: GranularBall, p: Int): Vector[Point] = {
    val homo = ball.points.filter(_.label == ball.label)
    if (homo.isEmpty) return Vector.empty
    val rows = Neighbors.rows(homo); val ids = homo.map(_.id).toArray
    val chosen = mutable.LinkedHashMap.empty[Long, Point]
    var d = 0
    while (d < p) {
      var sign = -1
      while (sign <= 1) {
        val target = ball.center.clone()
        target(d) += sign * ball.radius
        val best = homo(Neighbors.kNearest(rows, target.length, target, 1, ids)(0))
        chosen.getOrElseUpdate(best.id, best)
        sign += 2
      }
      d += 1
    }
    chosen.valuesIterator.toVector
  }

  /** Full GGBS pipeline: baseline GBG then undersampling. */
  def sample(data: Vector[Point], purityThreshold: Double = 1.0, seed: Long = 42): Vector[Point] = {
    if (data.isEmpty) return Vector.empty
    val p = data.head.dim
    undersample(KDivisionGBG.generate(data, purityThreshold, seed), p)(sampleLargeBall(_, p))
      .valuesIterator.toVector
  }

  /** The per-ball loop GGBS and IGBS share: a small ball (|GB| <= 2p) adds
    * all of its samples, a large one adds `large(ball)`; samples are kept
    * once per id, in ball order.
    */
  private[gbs] def undersample(balls: Vector[GranularBall], p: Int)(
      large: GranularBall => Vector[Point]): mutable.LinkedHashMap[Long, Point] = {
    val chosen = mutable.LinkedHashMap.empty[Long, Point]
    balls.foreach { ball =>
      val picked = if (ball.size <= 2 * p) ball.points else large(ball)
      picked.foreach(pt => chosen.getOrElseUpdate(pt.id, pt))
    }
    chosen
  }
}
