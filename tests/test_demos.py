"""Every demo script runs to completion against the current API and prints
the same bytes as before: demos 01 and 05 print odd girths and hom
witnesses, the others cuts, cores and tournaments at fixed seeds."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_graph_structures.py":
        "10686f9c7fab53f68583874ad8552523b54b68826bad9c4cf40b9e61748aece6",
    "02_core_model.py":
        "c55ef3edde7ba985a7df6d2b9d9942c04538737ccd8348ee786f399f3fa41907",
    "03_cuts_and_sandwich.py":
        "9f9893a1db487eb4b84442086d0b70bedb02275d0aa488979a48ceaeeffb38c6",
    "04_scaling_law.py":
        "4eb7fc2896f7d1571d7327ff3093c5fe7bc89f716a91b1c9b8c868cfaf061611",
    "05_odd_cycle_homomorphisms.py":
        "39f633abc735a77d92738983fc2a71ec379187d57d3088d5d3edf1d24b456413",
    "06_tournaments.py":
        "002c302ee00a2b038745a5aa96d970bb295ddfa16d0f828ad056417a0ff8c4fc",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        STDOUT_SHA256[path.name]
