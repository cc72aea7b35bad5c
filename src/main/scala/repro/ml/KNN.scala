package repro.ml

import repro.core.{Neighbors, Point}

/** k-nearest-neighbor classifier (brute force, Euclidean, majority vote —
  * scikit-learn defaults: k = 5, uniform weights).
  */
final case class KNN(k: Int = 5) extends Learner {
  override val name = "kNN"

  override def fit(train: Vector[Point], seed: Long): Classifier = {
    TrainSet.check(train, name)
    new KNNModel(train, math.min(k, train.size))
  }
}

/** Votes among the `k` training rows nearest to the query, ties in
  * distance broken by row index.
  */
final class KNNModel(train: Vector[Point], k: Int) extends Classifier {
  private val p = train.head.dim
  private val rows = Neighbors.rows(train)
  private val order = Array.tabulate(train.size)(_.toLong)
  private val labels = train.map(_.label).toArray

  override def predict(x: Array[Double]): Int =
    Point.mostCommon(Neighbors.kNearest(rows, p, x, k, order).map(labels))
}
