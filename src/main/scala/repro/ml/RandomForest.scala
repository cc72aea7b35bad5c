package repro.ml

import repro.core.Point
import scala.util.Random

/** Random forest: bagged depth-15 CART trees with sqrt(p) random features
  * per split and majority voting (Breiman 2001 / scikit-learn semantics;
  * ensemble size reduced for the bench budget, see EXPERIMENTS.md).
  */
final case class RandomForest(nTrees: Int = 25) extends Learner {
  override val name = "RF"

  override def fit(train: Vector[Point], seed: Long): Classifier = {
    val all = TrainSet(train, name) // feature codes once per forest
    val rng = new Random(seed)
    val n = all.ys.length
    val mtry = math.max(1, math.round(math.sqrt(all.code.length.toDouble)).toInt)
    val trees = Vector.fill(nTrees) {
      val draws = new Array[Int](n) // the bootstrap sample, a row once per draw
      var j = 0
      while (j < n) { draws(j) = rng.nextInt(n); j += 1 }
      DecisionTree.build(all, draws, maxDepth = 15, mtry, new Random(rng.nextLong()))
    }
    new ForestModel(trees)
  }
}

final class ForestModel(val trees: Vector[TreeModel]) extends Classifier {
  override def predict(x: Array[Double]): Int = Point.mostCommon(trees.iterator.map(_.predict(x)))
}
