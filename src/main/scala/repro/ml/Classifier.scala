package repro.ml

import repro.core.{Parallel, Point}

/** A fitted model: predicts a class label for a feature vector.
  * `predict` must be thread-safe: [[predictAll]] calls it from many threads.
  */
trait Classifier extends Serializable {
  def predict(x: Array[Double]): Int

  /** Predict every point in a test set, the points concurrently. */
  def predictAll(test: Seq[Point]): Vector[Int] = {
    val pts = test.toIndexedSeq
    val out = new Array[Int](pts.size)
    Parallel.forEach(out.length)(i => out(i) = predict(pts(i).features))
    out.toVector
  }
}

/** A trainable classification algorithm (the paper's downstream models). */
trait Learner extends Serializable {
  def name: String
  def fit(train: Vector[Point], seed: Long): Classifier
}

/** Evaluation metrics used by the paper: Accuracy and G-mean. */
object Metrics {

  /** Fraction of predictions equal to the true labels. */
  def accuracy(pred: Seq[Int], actual: Seq[Int]): Double = {
    require(pred.size == actual.size && pred.nonEmpty, "prediction/label size mismatch or empty")
    pred.iterator.zip(actual.iterator).count { case (a, b) => a == b }.toDouble / pred.size
  }

  /** Geometric mean of per-class recalls over classes present in `actual`.
    * Any class with zero recall drives G-mean to 0 (standard definition).
    */
  def gmean(pred: Seq[Int], actual: Seq[Int]): Double = {
    require(pred.size == actual.size && pred.nonEmpty, "prediction/label size mismatch or empty")
    val recalls = actual.indices.groupBy(actual(_)).values.map { idxs =>
      idxs.count(i => pred(i) == actual(i)).toDouble / idxs.size
    }
    math.pow(recalls.product, 1.0 / recalls.size)
  }
}
