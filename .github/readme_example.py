"""Run the README's library block against the installed package, then assert
the values its comments state.

Usage: python .github/readme_example.py README.md (run from outside the
checkout, so that `wordlen` is the installed package).
"""

import re
import sys

from wordlen import complexity_profile, length_trace, minimal_qpt, verify_tc

readme = open(sys.argv[1]).read()
block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
ns = {}
exec(block, ns)
w, S, exp, span = ns["w"], ns["S"], ns["exp"], ns["span"]
assert complexity_profile(w).total == 32
dec = minimal_qpt(w)
assert dec.cost == 4 and (dec.q, dec.p, dec.t) == (0, 3, 1)
assert (exp.num, exp.den) == (9, 3) and span == (0, 9)
assert verify_tc(w, k=3).theorem_ok
trace = length_trace(S, max_len=4)
assert trace.dims == (1, 3, 4) and trace.length == 2
assert trace.words == ((0,), (0, 1))
print("README library example: OK")
