"""Exception hierarchy shared across the package."""


class WordlabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WordlabError):
    """Bad experiment configuration or malformed input file."""


class UnsupportedParameterError(WordlabError):
    """Group spec parameter outside the supported desk-scale bounds."""


class MalformedCayleyTableError(WordlabError):
    """Cayley-table file is not a valid group table."""


class GroupMismatchError(WordlabError):
    """Elements of different groups were combined."""


class TooLargeError(WordlabError):
    """Group order exceeds the cap for full structural enumeration."""


class BudgetExceededError(WordlabError):
    """Enumeration budget (tuple count or state count) exceeded."""


class BadLetterError(WordlabError):
    """Word letter is zero or outside +-rank."""


class EmptyWordError(WordlabError):
    """Operation undefined for the empty word or the zero exponent vector."""


class RankMismatchError(WordlabError):
    """Evaluation tuple length differs from the word's rank."""


class DimensionMismatchError(WordlabError):
    """Tuples fed to a joint experiment have inconsistent lengths."""


class NotGeneratingError(WordlabError):
    """Step-set support does not generate the group."""


class NotInCatalogError(WordlabError):
    """Group is not in the simple-group catalog with known Aut order."""
