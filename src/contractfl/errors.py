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
    loss; `where`, which `simulation.train_for_round` sets when it raises
    the kernel's failure again, names who trained in which round."""

    def __init__(self, step: int, loss: float, where: str = ""):
        self.step = step
        self.loss = loss
        super().__init__(f"{where + ': ' if where else ''}"
                         f"non-finite training loss {loss!r} at step {step}")
