package repro.ml

import repro.core.Point
import scala.util.Random

/** Random forest: bagged CART trees with sqrt(p) random features per split
  * and majority voting (Breiman 2001 / scikit-learn semantics; ensemble
  * size reduced for the bench budget and recorded in EXPERIMENTS.md).
  */
final case class RandomForest(nTrees: Int = 25, maxDepth: Int = 15) extends Learner {
  override val name = "RF"

  override def fit(train: Vector[Point], seed: Long): Classifier = {
    require(train.nonEmpty, "RF needs a non-empty training set")
    Point.checkFeatures(train)
    val rng = new Random(seed)
    val p = train.head.dim
    val mtry = math.max(1, math.round(math.sqrt(p.toDouble)).toInt)
    val n = train.size
    val all = DecisionTree.trainSet(train) // feature ranks once per forest
    val trees = Vector.fill(nTrees) {
      val src = Array.fill(n)(rng.nextInt(n))
      DecisionTree.build(all.bootstrap(src), maxDepth, 2, mtry, new Random(rng.nextLong()))
    }
    new ForestModel(trees)
  }
}

final class ForestModel(val trees: Vector[TreeModel]) extends Classifier {
  override def predict(x: Array[Double]): Int = Classifier.vote(trees.iterator.map(_.predict(x)).toArray)
}
