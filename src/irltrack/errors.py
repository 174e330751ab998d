"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A config file, catalog lookup, or constructor argument is invalid.

    `fields` names the constructor fields the error concerns, so the config
    layer can report it under the INI keys those fields were read from.
    """

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)


class NumericFault(RuntimeError):
    """A computation produced NaN/Inf.

    Carries enough context (time, step index, offending component, partial
    telemetry) for post-mortem analysis; the step loop stamps `t` and `step`
    on a fault that does not carry them.
    """

    def __init__(self, message, t=None, component=None, telemetry=None,
                 step=None):
        super().__init__(message)
        self.t = t
        self.step = step
        self.component = component
        self.telemetry = telemetry


class OracleFailure(RuntimeError):
    """A ground-truth solver (e.g. the Riccati oracle) did not converge."""
