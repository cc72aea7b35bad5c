"""Compile the program and the benchmark harness into one class directory.

The program's sources (src/main/scala) and the harness sources
(perfbench/src) are compiled together with the Scala compiler that ships in
the Spark distribution, so no build tool or dependency cache is needed.
Output goes to .bench_build/perfbench/ under the checkout root and is reused
while the sources are unchanged.

Usage: python3 perfbench/build.py   (from the checkout root)
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "sources.sha256")


class BuildError(Exception):
    pass


def spark_home():
    """SPARK_HOME, or the parent of the directory holding spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return home


def spark_jars():
    return sorted(glob.glob(os.path.join(spark_home(), "jars", "*.jar")))


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java found: set JAVA_HOME or put java on PATH")
    return exe


def sources():
    program = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(program):
        raise BuildError(f"program sources not found under {os.path.relpath(program)}")
    files = []
    for base in (program, os.path.join(HERE, "src")):
        files += glob.glob(os.path.join(base, "**", "*.scala"), recursive=True)
    return sorted(files)


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    """Runtime classpath: the compiled classes plus the Spark jars."""
    return os.pathsep.join([CLASSES] + spark_jars())


def build(verbose=True):
    """Compile if the sources changed since the last build; return the classpath."""
    files = sources()
    want = digest(files)
    if os.path.exists(STAMP) and open(STAMP).read().strip() == want:
        return classpath()
    jars = spark_jars()
    compiler = [j for j in jars if os.path.basename(j).startswith(
        ("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        raise BuildError("the Spark distribution lacks the Scala compiler jars")
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(CLASSES)
    args_file = os.path.join(OUT, "scalac.args")
    with open(args_file, "w") as fh:
        fh.write("\n".join(["-nowarn", "-d", CLASSES, "-classpath", os.pathsep.join(jars)] + files))
    if verbose:
        print(f"building {len(files)} Scala sources ...", file=sys.stderr, flush=True)
    proc = subprocess.run(
        [java(), "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(compiler),
         "scala.tools.nsc.Main", "@" + args_file],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise BuildError("scalac failed:\n" + proc.stdout[-4000:])
    with open(STAMP, "w") as fh:
        fh.write(want + "\n")
    return classpath()


if __name__ == "__main__":
    try:
        build()
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
    print(CLASSES)
