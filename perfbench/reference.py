"""A fixed reference job: the host's current speed, measured between stages.

    python3 perfbench/reference.py

It does the same kinds of work as the spiroflow stages (interpreter start
and numpy import, small matrix products in a time-step loop, einsum
convolutions, 1-D smoothing, pure-Python loops, CSV and JSON text), on
fixed inputs and with no code from the package, so its time changes only
with the host.
"""

import csv
import io
import json

import numpy as np

rng = np.random.default_rng(0)

# LSTM-like recurrence: small products, one time step after another
w = rng.standard_normal((64, 16))
u = rng.standard_normal((64, 16))
x = rng.standard_normal((32, 60, 16))
h = np.zeros((32, 16))
for _ in range(6):
    for t in range(x.shape[1]):
        pre = x[:, t] @ w.T + h @ u.T
        h = np.tanh(pre[:, :16]) * (1.0 / (1.0 + np.exp(-pre[:, 16:32])))

# same-padded conv over patches, tap by tap
patches = rng.standard_normal((400, 1, 32))
kernel = rng.standard_normal((8, 1, 5))
for _ in range(10):
    out = np.zeros((400, 8, 32))
    for tap in range(5):
        lo, hi = max(0, 2 - tap), min(32, 34 - tap)
        out[:, :, lo:hi] += np.einsum("pcl,oc->pol", patches[:, :, lo + tap - 2 : hi + tap - 2], kernel[:, :, tap])

# smoothing and differencing of 1-D curves
curve = np.cumsum(rng.random(600))
g = np.exp(-0.5 * np.linspace(-3, 3, 31) ** 2)
for _ in range(700):
    np.diff(np.convolve(curve, g / g.sum(), mode="same"))

# text: a CSV table parsed row by row, then JSON out and back
text = io.StringIO()
writer = csv.writer(text)
for i in range(3000):
    writer.writerow([f"id{i:05d}", i % 6, *(f"{v:.6f}" for v in rng.random(4))])
rows = [[row[0], int(row[1]), *map(float, row[2:])] for row in csv.reader(io.StringIO(text.getvalue()))]
json.loads(json.dumps([{"id": r[0], "c": r[1], "v": r[2:]} for r in rows], sort_keys=True))

# dict and list bookkeeping
table = {}
for i in range(80000):
    table[i % 997] = table.get(i % 997, 0) + i
