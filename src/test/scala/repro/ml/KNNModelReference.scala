package repro.ml

import repro.core.Point

/** The kNN predictor from before `repro.core.Neighbors`, kept verbatim as
  * the reference of `NeighborsDiffSpec`.
  */
final class KNNModelReference(train: Vector[Point], k: Int) extends Classifier {
  override def predict(x: Array[Double]): Int = {
    // Partial selection of the k smallest distances via a simple bounded
    // insertion — train sets here are small, so this is plenty.
    val bestD = Array.fill(k)(Double.PositiveInfinity)
    val bestL = new Array[Int](k)
    var i = 0
    while (i < train.size) {
      val d = Point.sqDist(train(i).features, x)
      if (d < bestD(k - 1)) {
        var j = k - 1
        while (j > 0 && bestD(j - 1) > d) { bestD(j) = bestD(j - 1); bestL(j) = bestL(j - 1); j -= 1 }
        bestD(j) = d; bestL(j) = train(i).label
      }
      i += 1
    }
    val found = math.min(k, train.size)
    bestL.take(found).groupBy(identity).maxBy { case (lab, v) => (v.length, -lab) }._1
  }
}
