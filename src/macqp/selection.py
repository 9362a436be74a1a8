"""Architecture cost (AIC) and per-block model selection during training.

The selection criterion adds 2*eps^2 times the free-parameter count to
the fit error.  Because the penalized objective separates over blocks at
fixed coordinates, each block's size can be chosen independently while
refitting it: a selection step is a W-step (mac.w_step) that fits each
selectable block at every candidate size and keeps the best fit + cost.
"""

import numbers
from dataclasses import dataclass

# fit_rbf_linear_pair and mac_train are also wrapped here by perfbench/rep.py's tracer
from .baselines import fit_rbf_linear_pair
from .mac import block_slices, mac_train, w_step
from .model import LayerKind, MacqpError, check_count, check_real


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


def selection_step(net, Z, data, mu, cfg, transient_reg=0.0, outs=None, tables=None):
    """A W-step that also chooses each selectable block's size at fixed Z.

    ``cfg.candidates_per_block`` holds one list of sizes per selectable
    block, in block order; see w_step's ``candidates`` for how a size is
    chosen.  The combined fit + cost objective never increases.  ``outs``
    and ``tables`` are as in w_step.
    """
    sel = selectable_blocks(net)
    if len(cfg.candidates_per_block) != len(sel):
        raise MacqpError(
            f"candidates_per_block has {len(cfg.candidates_per_block)} lists, but the net "
            f"has {len(sel)} selectable blocks"
        )
    return w_step(net, Z, data, mu, transient_reg=transient_reg, outs=outs, tables=tables,
                  candidates=dict(zip(sel, cfg.candidates_per_block)),
                  epsilon_sq=cfg.epsilon_sq)


def mac_train_with_selection(net, data, schedule, sel_cfg, workers=1, time_budget=None,
                             z_init=None):
    """Penalty-path training with a selection step every ``cadence`` W-steps."""
    return mac_train(
        net, data, schedule, workers=workers,
        time_budget=time_budget, z_init=z_init, sel_cfg=sel_cfg,
    )
