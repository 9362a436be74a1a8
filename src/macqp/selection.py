"""Architecture cost (AIC) and per-block model selection during training.

The selection criterion adds 2*eps^2 times the free-parameter count to
the fit error.  Because the penalized objective separates over blocks at
fixed coordinates, each block's size can be chosen independently by
refitting it at every candidate size and scoring fit + cost.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .baselines import fit_rbf_linear_pair
from .mac import _block_objective, _block_output, block_slices, mac_train, qp_blocks
from .model import Layer, LayerKind, LayerWeights, MacqpError, NestedNet, check_count, check_real


@dataclass
class SelectionConfig:
    candidates_per_block: list
    epsilon_sq: float
    cadence: int = 10

    def __post_init__(self):
        check_real(self.epsilon_sq, "epsilon_sq", 0)
        if self.epsilon_sq == 0:
            raise ValueError("epsilon_sq must be positive")
        check_count(self.cadence, "cadence", 1)
        cands = self.candidates_per_block
        if not (
            isinstance(cands, (list, tuple))
            and all(isinstance(c, (list, tuple)) and c for c in cands)
            and all(isinstance(m, numbers.Integral) and not isinstance(m, bool) and m >= 1
                    for c in cands for m in c)
        ):
            raise ValueError("candidates_per_block must be a list of nonempty lists of "
                             f"integers >= 1, got {cands!r}")
        if any(list(c) != sorted(c) for c in cands):
            raise ValueError(f"candidates_per_block lists must be ascending, got {cands!r}")


def aic_cost(net, epsilon_sq):
    """Model cost 2 * eps^2 * (free parameter count), additive over layers."""
    return 2.0 * epsilon_sq * net.num_params()


def selectable_blocks(net):
    """Indices of blocks whose internal size can vary: RBF + linear pairs.

    Only blocks whose output boundary carries no auxiliary coordinates of
    changing width qualify; an RBF+linear pair varies its internal basis
    count while keeping its output width fixed, so it always does.
    """
    out = []
    for j, sl in enumerate(block_slices(net)):
        kinds = [net.layers[i].spec.kind for i in range(sl[0], sl[1])]
        if kinds == [LayerKind.GAUSSIAN_RBF, LayerKind.LINEAR_DENSE]:
            out.append(j)
    return out


def _candidate_pair(rbf_spec, lin_spec, m):
    rbf_s = replace(rbf_spec, out_dim=m)
    lin_s = replace(lin_spec, in_dim=m)
    return (
        Layer(rbf_s, LayerWeights(np.zeros(rbf_s.weight_shape))),
        Layer(lin_s, LayerWeights(np.zeros(lin_s.weight_shape))),
    )


def selection_step(net, Z, data, mu, cfg, transient_reg=0.0, outs=None, tables=None):
    """Choose each selectable block's size by refit-and-score at fixed Z.

    Keeps the current block unless some candidate scores strictly
    better; candidate fits that fail are skipped.  The combined fit + cost
    objective never increases.  ``outs`` and ``tables`` are as in w_step:
    the current blocks are scored from ``outs``, a resized block's output
    replaces its entry, and candidates fit and score from the tables.
    """
    blocks = qp_blocks(net, Z, data, mu)
    sel = selectable_blocks(net)
    if len(cfg.candidates_per_block) != len(sel):
        raise MacqpError(
            f"{len(sel)} selectable blocks but "
            f"{len(cfg.candidates_per_block)} candidate lists"
        )

    def score(pair, j, out):
        """Block j's part of E_Q plus the pair's parameter cost."""
        fit = _block_objective(pair, *blocks[j][1:], transient_reg, out=out)
        return fit + aic_cost(NestedNet(list(pair)), cfg.epsilon_sq)

    new_layers = list(net.copy().layers)
    for cands, j in zip(cfg.candidates_per_block, sel):
        sl, A, T, weight = blocks[j]
        table = None if tables is None else tables[j]
        rbf_cur, lin_cur = net.layers[sl[0]], net.layers[sl[0] + 1]
        best_score = score((rbf_cur, lin_cur), j, None if outs is None else outs[j])
        best_pair = None
        for m in cands:
            try:
                tmpl_rbf, tmpl_lin = _candidate_pair(rbf_cur.spec, lin_cur.spec, m)
                pair = fit_rbf_linear_pair(tmpl_rbf, tmpl_lin, A, T, weight,
                                           transient_reg=transient_reg, centers_by_size=table)
            except MacqpError:
                continue
            out = _block_output(pair, A, table, start=sl[0])
            pair_score = score(pair, j, out)
            if pair_score < best_score:
                best_score, best_pair, best_out = pair_score, pair, out
        if best_pair is not None:
            new_layers[sl[0]] = best_pair[0]
            new_layers[sl[0] + 1] = best_pair[1]
            if outs is not None:
                outs[j] = best_out
    return NestedNet(new_layers, list(net.placement))


def mac_train_with_selection(net, data, schedule, sel_cfg, workers=1, time_budget=None,
                             z_init=None):
    """Penalty-path training with a selection step every ``cadence`` iterations."""
    return mac_train(
        net, data, schedule, workers=workers,
        time_budget=time_budget, z_init=z_init, sel_cfg=sel_cfg,
    )
