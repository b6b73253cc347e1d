"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A config value or combination of values is invalid."""


class DataFormatError(ValueError):
    """A data file is malformed; the message names the byte offset."""


class ContractViolation(ValueError):
    """A contract menu breaks monotonicity, feasibility, or a binding constraint."""


class InfeasibleEffort(ValueError):
    """An effort level violates the completion-time bound."""


class TrainingDiverged(ArithmeticError):
    """Training hit a non-finite loss. Carries the failing step index and
    loss, and once `during` has named it, who trained in which round."""

    def __init__(self, step: int, loss: float, where: str = ""):
        self.step = step
        self.loss = loss
        super().__init__(f"{where + ': ' if where else ''}"
                         f"non-finite training loss {loss!r} at step {step}")

    def during(self, who: str, round_idx: int) -> "TrainingDiverged":
        """This failure, named as `who`'s training in round `round_idx`."""
        return TrainingDiverged(self.step, self.loss, f"{who}, round {round_idx}")
