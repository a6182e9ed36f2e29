"""Error types shared across the package.

Every error carries a short ``code`` used in CLI diagnostics, so that the
failure category is visible without parsing the message text.
"""


class AutalgError(Exception):
    code = "Error"

    def __str__(self):
        msg = super().__str__()
        return f"{self.code}: {msg}" if msg else self.code


class ZeroInverse(AutalgError):
    code = "ZeroInverse"


class BadPrime(AutalgError):
    code = "BadPrime"


class LimitExceeded(AutalgError):
    code = "LimitExceeded"


class BudgetExceeded(AutalgError):
    code = "BudgetExceeded"


class MissingDegreeRule(AutalgError):
    code = "MissingDegreeRule"


class PresentationSyntaxError(AutalgError):
    code = "SyntaxError"

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DuplicateBasis(AutalgError):
    code = "DuplicateBasis"


class UnknownName(AutalgError):
    code = "UnknownName"


class GradingViolation(AutalgError):
    code = "GradingViolation"


class NotGenerating(AutalgError):
    code = "NotGenerating"

    def __init__(self, reached):
        # reached: basis (list of coordinate tuples) of the proper subspace
        # actually generated by the declared generators
        self.reached = reached
        super().__init__(f"generators span only a {len(reached)}-dimensional subspace")


class TruncationTooShort(AutalgError):
    code = "TruncationTooShort"
