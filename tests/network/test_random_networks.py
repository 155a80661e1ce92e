"""Randomised multi-level BLIF networks through the BLIF reader and writer.

Each network is a random DAG of ``.names`` nodes with onset or offset
covers.  The test simulates it node by node and checks that
``parse_blif`` flattens it to the same outputs, before and after a
``write_blif`` round trip.
"""

import itertools
import random

import pytest

from repro.boolfunc.blif import parse_blif, write_blif

NUM_INPUTS = 4


def random_network(seed, num_inputs=NUM_INPUTS, num_nodes=6):
    """A random network as (inputs, nodes, outputs).

    ``nodes`` is a topologically ordered list of
    ``(name, fanins, rows)``; every row of one node has the same
    output value, as BLIF requires.
    """
    rng = random.Random(seed)
    inputs = [f"i{i}" for i in range(num_inputs)]
    signals = list(inputs)
    nodes = []
    for j in range(num_nodes):
        k = rng.randint(1, min(3, len(signals)))
        fanins = rng.sample(signals, k)
        polarity = rng.choice("01")
        rows = []
        for _ in range(rng.randint(1, 3)):
            pattern = "".join(rng.choice("01-") for _ in range(k))
            rows.append((pattern, polarity))
        name = f"n{j}"
        nodes.append((name, fanins, rows))
        signals.append(name)
    # Choose a couple of outputs among the later signals.
    outputs = rng.sample(signals[num_inputs:], 2)
    return inputs, nodes, outputs


def to_blif(seed, network):
    inputs, nodes, outputs = network
    lines = [f".model rand{seed}",
             ".inputs " + " ".join(inputs),
             ".outputs " + " ".join(outputs)]
    for name, fanins, rows in nodes:
        lines.append(".names " + " ".join(fanins + [name]))
        lines.extend(f"{pattern} {value}" for pattern, value in rows)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def simulate(network, bits):
    """Output values of the network, one node at a time."""
    inputs, nodes, outputs = network
    values = dict(zip(inputs, bits))
    for name, fanins, rows in nodes:
        hit = any(all(ch == "-" or int(ch) == values[f]
                      for ch, f in zip(pattern, fanins))
                  for pattern, _ in rows)
        onset = rows[0][1] == "1"
        values[name] = int(hit == onset)
    return [values[o] for o in outputs]


@pytest.mark.parametrize("seed", range(10))
def test_collapse_equals_simulation(seed):
    network = random_network(seed)
    func = parse_blif(to_blif(seed, network))
    assert func.input_names == network[0]
    assert func.output_names == network[2]
    for bits in itertools.product((0, 1), repeat=NUM_INPUTS):
        sym = func.eval(dict(zip(func.inputs, bits)))
        assert sym == simulate(network, bits), (seed, bits)


@pytest.mark.parametrize("seed", range(6))
def test_blif_roundtrip_random(seed):
    network = random_network(seed + 200)
    func = parse_blif(write_blif(parse_blif(to_blif(seed, network))))
    assert func.input_names == network[0]
    assert func.output_names == network[2]
    for bits in itertools.product((0, 1), repeat=NUM_INPUTS):
        assert func.eval(dict(zip(func.inputs, bits))) == \
            simulate(network, bits), (seed, bits)
