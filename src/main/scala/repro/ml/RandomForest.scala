package repro.ml

import repro.core.{Parallel, Point}
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
    // Every tree's bootstrap sample (a row once per draw) and seed, drawn in
    // tree order; then the trees grow concurrently over the one `all`.
    val draws = Array.fill(nTrees)(new Array[Int](n))
    val seeds = new Array[Long](nTrees)
    var t = 0
    while (t < nTrees) {
      var j = 0
      while (j < n) { draws(t)(j) = rng.nextInt(n); j += 1 }
      seeds(t) = rng.nextLong()
      t += 1
    }
    val trees = new Array[TreeModel](nTrees)
    Parallel.forEach(nTrees) { i =>
      trees(i) = DecisionTree.build(all, draws(i), maxDepth = 15, mtry, new Random(seeds(i)))
    }
    new ForestModel(trees.toVector)
  }
}

final class ForestModel(val trees: Vector[TreeModel]) extends Classifier {
  override def predict(x: Array[Double]): Int = Point.mostCommon(trees.iterator.map(_.predict(x)))
}
