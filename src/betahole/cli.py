"""Command-line front end.

All commands exit 0 on success, 1 on a domain error (bad mathematical
input), and 2 on a usage error.  Numeric output uses fixed decimal
notation controlled by --digits, so identical invocations are
byte-identical.
"""

import json
import sys
from fractions import Fraction

import click

from .errors import BetaHoleError
from .sequences import EpSequence, is_admissible, require_in_Q
from .numeric import BetaSpec, Interval
from .survivor import PointSpec, dimension
from . import words as W
from . import bifurcation as B
from . import critical as C
from . import numeric as N


def _fmt(x, digits):
    return ("%%.%df" % digits) % x


_NONNEGATIVE, _POSITIVE = click.IntRange(min=0), click.IntRange(min=1)


def _show_help(ctx, param, value):
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color)
        ctx.exit()


# click builds its default --help option per command with gettext, whose
# language lookup imports locale; one prebuilt option skips that
_HELP = click.Option(["--help"], is_flag=True, expose_value=False,
                     is_eager=True, callback=_show_help,
                     help="Show this message and exit.")


class _Command(click.Command):
    def get_help_option(self, ctx):
        return _HELP


class _Group(_Command, click.Group):
    command_class = _Command

    def invoke(self, ctx):
        """Run the command; a domain error from any of them exits 1."""
        try:
            return super().invoke(ctx)
        except (BetaHoleError, ValueError) as e:
            click.echo("error: %s" % e, err=True)
            sys.exit(1)


def _closed_alpha(beta_s):
    """alpha(beta) of a --beta value, which must have a closed form."""
    a = BetaSpec.parse(beta_s).alpha_sequence()
    if a is None:
        raise BetaHoleError("no closed form for alpha at this base; "
                            "give beta as @PRE(PER)")
    return a


@click.group(cls=_Group)
def main():
    """Beta-expansions, survivor sets and the Farey bifurcation atlas."""


@main.command()
@click.option("--x", required=True, help="point in [0,1] (decimal)")
@click.option("--beta", "beta_s", required=True,
              help='base: decimal or "@PRE(PER)"')
@click.option("--n", default=24, show_default=True, type=_POSITIVE)
@click.option("--mode", type=click.Choice(["greedy", "quasi"]),
              default="greedy", show_default=True)
def expand(x, beta_s, n, mode):
    """Digits of the (quasi-)greedy expansion of x in base beta."""
    beta = BetaSpec.parse(beta_s)
    xv = Interval(x)
    if mode == "greedy":
        digits, cert = N.greedy_digits(xv, beta.value, n)
    elif xv.a == xv.b == 1:
        digits, cert = beta.alpha_prefix(n), True
    else:
        digits, cert = N.quasi_greedy_digits(xv, beta.value, n)
    click.echo(digits)
    if not cert:
        click.echo("certified to %d of %d digits" % (len(digits), n),
                   err=True)


@main.command()
@click.option("--beta", "beta_s", required=True)
@click.option("--n", default=48, show_default=True, type=_POSITIVE)
def alpha(beta_s, n):
    """Expansion of 1 in base beta; reports a closed form if one is found."""
    beta = BetaSpec.parse(beta_s)
    seq = beta.alpha_sequence()
    if seq is not None:
        click.echo("%s = %s..." % (seq, seq.prefix(min(n, 24))))
    else:
        click.echo(beta.alpha_prefix(n))


@main.command("solve-beta")
@click.option("--alpha", "alpha_s", required=True, help='"PRE(PER)"')
@click.option("--digits", default=12, show_default=True, type=_NONNEGATIVE)
def solve_beta(alpha_s, digits):
    """Base whose expansion of 1 equals the given sequence."""
    b = N.beta_from_alpha(EpSequence.parse(alpha_s))
    click.echo(N.fixed(b.mid() + Fraction(1, 2 * 10 ** digits), digits,
                       False))


@main.command()
@click.option("--x", "x_s", required=True, help='sequence "PRE(PER)"')
@click.option("--alpha", "alpha_s", default=None, help='"PRE(PER)"')
@click.option("--beta", "beta_s", default=None)
def admissible(x_s, alpha_s, beta_s):
    """Parry admissibility of a sequence (all shifts strictly below alpha)."""
    if (alpha_s is None) == (beta_s is None):
        raise click.UsageError("give exactly one of --alpha / --beta")
    a = EpSequence.parse(alpha_s) if beta_s is None else _closed_alpha(beta_s)
    require_in_Q(a)
    x = EpSequence.parse(x_s)
    click.echo("true" if is_admissible(x, a) else "false")


@main.command()
@click.option("--level", type=click.IntRange(0, W.MAX_FAREY_LEVEL))
@click.option("--check", default=None, help="word to test for membership")
def farey(level, check):
    """Farey word families: list a level, or test one word."""
    if (level is None) == (check is None):
        raise click.UsageError("give exactly one of --level / --check")
    if level is not None:
        click.echo(",".join(W.farey_level(level)))
    else:
        click.echo("true" if W.is_farey(check) else "false")


@main.command()
@click.option("--word", required=True)
def factorize(word):
    """Standard factorization of a non-degenerate Farey word."""
    u, v = W.standard_factorization(word)
    click.echo("%s %s" % (u, v))


@main.command()
@click.option("--max-len", type=click.IntRange(2, 12), required=True)
@click.option("--kind", type=click.Choice(["farey", "all"]), default="all",
              show_default=True)
@click.option("--digits", default=12, show_default=True, type=_POSITIVE)
def atlas(max_len, kind, digits):
    """JSON atlas of basic/Farey parameter intervals up to a generator length."""
    recs = B.atlas(max_len, kind)
    doc = {"intervals": B.atlas_json(recs, digits),
           "nesting": [{"first": recs[i].generator,
                        "second": recs[j].generator, "relation": r}
                       for i, j, r in B.nesting(recs)]}
    click.echo(json.dumps(doc, indent=2))


@main.command()
@click.option("--beta", "beta_s", required=True)
@click.option("--t-min", type=float, default=0.0, show_default=True)
@click.option("--t-max", type=float, required=True)
@click.option("--samples", type=click.IntRange(min=2), required=True)
@click.option("--digits", default=12, show_default=True, type=_NONNEGATIVE)
@click.option("--horizon", default=N.DEFAULT_HORIZON, show_default=True,
              type=_POSITIVE)
def staircase(beta_s, t_min, t_max, samples, digits, horizon):
    """CSV sweep of entropy/dimension brackets over a grid of hole sizes;
    each hole is the grid point as printed at --digits, and each bracket
    is rounded outward at --digits."""
    if not (0 <= t_min < t_max <= 1):
        raise click.UsageError("need 0 <= t-min < t-max <= 1")
    beta = BetaSpec.parse(beta_s)
    click.echo("t,h_lower,h_upper,dim_lower,dim_upper,method")
    for i in range(samples):
        t = _fmt(t_min + (t_max - t_min) * i / (samples - 1), digits)
        rep = dimension(beta, PointSpec(value=t), horizon=horizon)
        click.echo(",".join([
            t,
            N.fixed(rep.h_lower, digits, False),
            N.fixed(rep.h_upper, digits, True),
            N.fixed(rep.dim_lower, digits, False),
            N.fixed(rep.dim_upper, digits, True),
            rep.method,
        ]))


@main.command()
@click.option("--beta", "beta_s", required=True)
@click.option("--atlas-depth", default=10, show_default=True,
              type=click.IntRange(min=2))
@click.option("--digits", default=12, show_default=True, type=_NONNEGATIVE)
def tau(beta_s, atlas_depth, digits):
    """Critical hole size report (regime plus certified bracket), as JSON."""
    beta = BetaSpec.parse(beta_s)
    rep = C.tau_report(beta, atlas_depth)
    click.echo(json.dumps(C.tau_json(rep, digits), indent=2))


@main.command()
@click.option("--word", required=True, help="Lyndon period of t")
@click.option("--beta", "beta_s", required=True)
def isolated(word, beta_s):
    """Classify whether the periodic point (word)^inf is isolated in E+."""
    beta = BetaSpec.parse(beta_s)
    click.echo(json.dumps(
        {"word": word, "classification": B.classify_isolated(word, beta)}))


@main.command()
@click.option("--word", required=True, help="generator a")
def zset(word):
    """Enumerate the finite two-sided-bounded set attached to a generator."""
    members = C.z_set(word)
    click.echo(json.dumps({"word": word,
                           "cardinality": len(members),
                           "members": [str(x) for x in members]}))


@main.command()
@click.option("--t", "t_s", required=True, help='sequence "PRE(PER)"')
@click.option("--beta", "beta_s", required=True)
def classify(t_s, beta_s):
    """Bifurcation-set membership of a hole endpoint given symbolically."""
    a = _closed_alpha(beta_s)
    t = EpSequence.parse(t_s)
    click.echo(json.dumps({
        "t": str(t),
        "in_E_plus": B.in_E_plus(t, a),
        "in_E_zero": B.in_E_zero(t, a),
    }))


if __name__ == "__main__":
    main()
