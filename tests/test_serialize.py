import math

import numpy as np

from binomcap.serialize import csv_text


class TestCsvText:
    def test_cells(self, rng):
        reals = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
        reals = [*reals, 0.1, 1.0 / 3.0, 5e-324, -0.0, 1.7976931348623157e308]
        ints = [0, -3, np.int64(7), 2 ** 70]
        rows = [(ints[k % len(ints)], x) for k, x in enumerate(reals)]
        text = csv_text(("k", "x"), rows)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "k,x"
        assert len(lines) == len(rows) + 1
        for (k, x), line in zip(rows, lines[1:]):
            sk, sx = line.split(",")
            assert sk == str(int(k))
            assert float(sx).hex() == float(x).hex()  # round-trips bit for bit

    def test_nonfinite_cells(self):
        text = csv_text(("a", "b", "c"), [(math.nan, math.inf, -math.inf),
                                          (np.float64("nan"), np.inf, 1)])
        assert text == "a,b,c\n,inf,-inf\n,inf,1\n"
