"""Walk through the transmitter side: configuration, access patterns,
and how densely the users occupy the resource elements.
"""
import numpy as np

from gfrma import config as C
from gfrma import pattern as P
from gfrma.harness import DESK_CONFIG

cfg = C.validate_config(DESK_CONFIG)
print("system:", cfg.K, "users, p_a =", cfg.p_a, "->", cfg.n_active,
      "active per cycle")
print("packet:", cfg.m, "info bits ->", cfg.N, "coded symbols (rate",
      cfg.code_rate, ")")
print("block:", cfg.T, "resource elements, degree pmf", cfg.racf)
print("throughput: %.3f bits per RE" % C.throughput(cfg))
ed = C.racf_mean_degree(cfg.racf)
print("mean degree E[d] = %.3f -> %.0f edges per user over the block"
      % (ed, cfg.T * ed))

# the receiver rebuilds the exact same pattern from (seed, user, RE)
graph = P.build_access_graph(cfg)
print("\naccess graph:", graph.n_edges, "edges total")

occ = np.bincount(graph.edge_re, minlength=cfg.T)
print("RE occupancy: mean %.2f, max %d, idle fraction %.3f"
      % (occ.mean(), occ.max(), np.mean(occ == 0)))

# per-symbol repetition count: how many REs carry each coded symbol
per_sym = np.bincount(graph.edge_user * cfg.N + graph.edge_sym,
                      minlength=cfg.K * cfg.N)
print("symbol repetitions: mean %.2f, unobserved fraction %.4f"
      % (per_sym.mean(), np.mean(per_sym == 0)))

# a user's draws are pure functions of (seed, user, RE): no signaling needed
d = P.derive_draw(cfg.system_seed, user=0, re=17, racf=cfg.racf, N=cfg.N)
print("\nuser 0 at RE 17 sends degree", d.degree, "symbols", d.symbols)
