"""Beta-expansions, survivor sets with a hole at zero, and the
Lyndon/Farey bifurcation machinery."""

from .errors import BetaHoleError
from .words import (plus, reflect, is_lyndon, lyndon_rotation,
                    max_rotation, farey_level, is_farey,
                    standard_factorization, check_palindrome_property)
from .sequences import (EpSequence, lex_compare_ep, is_in_Q, is_admissible)
from .numeric import (BetaSpec, beta_from_alpha, alpha_of_beta,
                      greedy_digits, quasi_greedy_digits, project)
from .survivor import (LexSubshift, PointSpec, compile, count_words,
                       entropy, dimension, membership)
from .bifurcation import (in_E_plus, in_E_zero, basic_interval,
                          classify_isolated, nesting_relation,
                          doubling_interval, phi, atlas)
from .critical import (tau_report, tau_json, z_set, t_n_family,
                       t_star_sequence, t_diamond_sequence,
                       verify_empty_at_left_endpoint)

__version__ = "0.1.0"
