"""Error taxonomy shared by every module and the CLI exit-code mapping,
and the size check that refuses hostile inputs before any expansion."""


class HodgekitError(Exception):
    pass


class PreconditionError(HodgekitError, ValueError):
    """Bad input: violated contract, schema mismatch, out-of-range argument.

    The CLI maps this to exit code 1 together with a machine-readable reason.
    """


class InternalInvariantError(HodgekitError, RuntimeError):
    """An internal consistency check failed; this signals a bug, not bad input.

    The CLI maps this to exit code 2.
    """


def check_budget(count, what, cap, name):
    """Refuse ``count`` items (described by ``what``) when they exceed the
    budget ``cap``, held in the constant ``name``; called before any of
    them is built."""
    if count > cap:
        raise PreconditionError(
            f"{count} {what} exceed the budget {cap} ({name})")
