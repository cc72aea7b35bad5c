package repro.core

import scala.collection.mutable

/** Result of GB-based approximate borderline sampling.
  *
  * @param sampled        the borderline sample set S (no duplicates)
  * @param balls          the granular balls generated by RD-GBG
  * @param noise          class-noise samples removed by RD-GBG
  * @param borderlineIdx  indices (into `balls`) of the borderline balls
  * @param originalSize   |D|, for sampling-ratio accounting
  */
final case class GBABSResult(
    sampled: Vector[Point],
    balls: Vector[GranularBall],
    noise: Vector[Point],
    borderlineIdx: Set[Int],
    originalSize: Int,
) {
  /** Sampling ratio |S| / |D| relative to the original dataset. */
  def samplingRatio: Double =
    if (originalSize == 0) 0.0 else sampled.size.toDouble / originalSize
}

/** GB-based Approximate Borderline Sampling (Algorithm 2).
  *
  * The centers of all balls form the positional summary of the dataset.
  * Along every feature dimension the centers are sorted; an adjacent pair
  * of heterogeneous centers marks both balls as borderline in that
  * dimension, and each ball of the pair contributes its sample nearest the
  * shared boundary: the left ball's sample with the largest coordinate and
  * the right ball's sample with the smallest (Fig.4 of the paper).
  */
object GBABS {

  /** Borderline sampling over an existing ball set with `p` features. */
  def sampleBalls(balls: Vector[GranularBall], p: Int): (Vector[Point], Set[Int]) = {
    val chosen = mutable.LinkedHashMap.empty[Long, Point]
    val borderline = mutable.Set.empty[Int]
    if (balls.size >= 2) {
      val column = new Array[Double](balls.size) // the centers' d-th coordinates
      var d = 0
      while (d < p) {
        var i = 0
        while (i < column.length) { column(i) = balls(i).center(d); i += 1 }
        val order = orderAlong(column)
        var k = 0
        while (k < order.length - 1) {
          val j = order(k); val j2 = order(k + 1)
          if (balls(j).label != balls(j2).label) {
            borderline += j; borderline += j2
            val left  = balls(j).extremeAlong(d, largest = true)
            val right = balls(j2).extremeAlong(d, largest = false)
            chosen.getOrElseUpdate(left.id, left)
            chosen.getOrElseUpdate(right.id, right)
          }
          k += 1
        }
        d += 1
      }
    }
    (chosen.valuesIterator.toVector, borderline.toSet)
  }

  /** Indices of `values` in [[encode]] order, ties by index (packed below the code). */
  private[core] def orderAlong(values: Array[Double]): Array[Int] = {
    val code = encode(values)._2
    val keys = new Array[Long](values.length)
    var i = 0
    while (i < keys.length) { keys(i) = (code(i).toLong << 32) | i; i += 1 }
    java.util.Arrays.sort(keys)
    i = 0
    while (i < keys.length) { code(i) = keys(i).toInt; i += 1 } // the codes become the order
    code
  }

  /** The distinct `values`, ascending in `java.lang.Double.compare` order,
    * and each value's code: its position among them. Codes are dense and
    * order the values as `Double.compare` does, equal values sharing one.
    */
  private[repro] def encode(values: Array[Double]): (Array[Double], Array[Int]) = {
    val distinct = values.clone()
    java.util.Arrays.sort(distinct)
    var m = 0; var i = 0
    while (i < distinct.length) {
      if (m == 0 || java.lang.Double.compare(distinct(m - 1), distinct(i)) != 0) { distinct(m) = distinct(i); m += 1 }
      i += 1
    }
    val code = new Array[Int](values.length)
    i = 0
    while (i < code.length) { code(i) = java.util.Arrays.binarySearch(distinct, 0, m, values(i)); i += 1 }
    (if (m == distinct.length) distinct else java.util.Arrays.copyOf(distinct, m), code)
  }

  /** Full pipeline: RD-GBG granulation then borderline sampling.
    *
    * If the ball set is single-class (no class boundary exists — e.g. a
    * partition that happens to hold one class), every sample is kept, since
    * discarding an entire region would be worse than not compressing it.
    */
  def run(data: Seq[Point], rho: Int = 5, seed: Long = 42): GBABSResult = {
    if (data.isEmpty) return GBABSResult(Vector.empty, Vector.empty, Vector.empty, Set.empty, 0)
    val gen = RDGBG.generate(data, rho, seed)
    val p = data.head.dim
    val labels = gen.balls.map(_.label).distinct
    if (labels.size <= 1) {
      GBABSResult(gen.balls.flatMap(_.points), gen.balls, gen.noise, Set.empty, data.size)
    } else {
      val (sampled, bIdx) = sampleBalls(gen.balls, p)
      GBABSResult(sampled, gen.balls, gen.noise, bIdx, data.size)
    }
  }
}
