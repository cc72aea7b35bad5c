package repro.gbs

import repro.core.Point
import scala.util.Random

/** GB-based Sampling for imbalanced datasets (IGBS), baseline.
  *
  * Same GBG stage as GGBS; undersampling differs:
  *  - small balls contribute all samples;
  *  - large *minority-labeled* balls contribute all of their minority-class
  *    samples;
  *  - large *majority-labeled* balls are sampled like GGBS large balls;
  *  - finally, if the majority class ended up under-represented relative to
  *    the largest minority-class count in the sample, random extra majority
  *    samples are added to balance.
  */
object IGBS {

  def sample(data: Vector[Point], purityThreshold: Double = 1.0, seed: Long = 42): Vector[Point] = {
    if (data.isEmpty) return Vector.empty
    val p = data.head.dim
    val rng = new Random(seed)
    val majority = Point.mostCommon(data.iterator.map(_.label))

    val chosen = GGBS.undersample(KDivisionGBG.generate(data, purityThreshold, seed), p) { ball =>
      if (ball.label != majority) ball.points.filter(_.label != majority) else GGBS.sampleLargeBall(ball, p)
    }

    // Rebalance: top the majority class back up to the largest minority count.
    val sampled = chosen.valuesIterator.toVector
    val sc = sampled.groupBy(_.label).view.mapValues(_.size).toMap
    val majIn = sc.getOrElse(majority, 0)
    val maxMinIn = (sc - majority).values.maxOption.getOrElse(0)
    if (majIn < maxMinIn) {
      val pool = rng.shuffle(data.filter(pt => pt.label == majority && !chosen.contains(pt.id)))
      pool.take(maxMinIn - majIn).foreach(pt => chosen.getOrElseUpdate(pt.id, pt))
    }
    chosen.valuesIterator.toVector
  }
}
