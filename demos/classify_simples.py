"""Classify simple comodules as block tensor products, with two cross-checks.

Run with: python3 demos/classify_simples.py
"""

from ncgl2 import classify, parse_lambda, sl2_rank_oracle
from ncgl2.simples import classify_crosscheck, split_segments, transfer_flags
from ncgl2.weights import enumerate_lambda

print("Every simple is a tensor product of blocks: symmetric powers S^k,")
print("their twisted duals T^k, and determinant powers R^i.  The classifier")
print("reads the block expression off the d-run lengths of the label.")
print()

SAMPLES = [
    "d^2",
    "d.Di.d",
    "d.Di.d^2",
    "d^3.Di.d",
    "d^2.Di.d^2",
    "d.Di.d.Di.d^3",
    "d.Di.d.D^2.d^2",
    "d.Di.d^4.Di.d.Di.d.Di.d.Di.d",
]
for text in SAMPLES:
    lam = parse_lambda(text)
    expr = classify(lam)
    lead, segments, connectors, trail = split_segments(lam)
    runs = " | ".join(str(z) for z in segments)
    print(f"  {text:30s} runs {runs:18s} ->  {expr.render():22s} dim {expr.dim}")

print()
print("Cross-check: the predicted dimension must equal the rank of the")
print("canonical map delta(lambda) -> nabla(lambda), whose image is the")
print("simple built independently from the comodule side:")
for text in ("d^2", "d.Di.d^2", "d.Di.d.Di.d^3"):
    report = classify_crosscheck(parse_lambda(text))
    print(
        f"  {text:16s} block dim {report['dim']:3d}, map rank {report['rank']:3d}, "
        f"dim L {report['dimL']:3d}, consistent = {report['consistent']}"
    )

total = ok = 0
for lam in enumerate_lambda(4):
    total += 1
    ok += classify_crosscheck(lam)["consistent"]
print(f"  swept all {total} labels with ell <= 4: {ok} consistent")

print()
print("Second, independent oracle: injectivity and surjectivity of the")
print("raising operator on bihomogeneous polynomial parts decide when")
print("adjacent blocks merge.  Flags follow a single inequality:")
for a, b in ((2, 1), (3, 2), (1, 3), (4, 1)):
    rep = sl2_rank_oracle(a, b, "left")
    one_to_one, onto = transfer_flags(a, b)
    print(
        f"  a={a} b={b}: rank {rep['rank']:2d}/{rep['source_dim']:2d}"
        f" -> {rep['target_dim']:2d},"
        f" injective={rep['injective']} (a>=b+1 is {one_to_one}),"
        f" surjective={rep['surjective']} (a<=b+1 is {onto})"
    )
