"""Look up one summary row of a study report, or one cell of that row, by its key columns."""


def cell(report, **filters) -> tuple:
    """The one row of ``report.rows`` whose columns equal ``filters``; KeyError unless one."""
    matches = [row for row in report.rows
               if all(row[report.columns.index(k)] == v for k, v in filters.items())]
    if len(matches) != 1:
        raise KeyError(f"{len(matches)} rows match {filters}")
    return matches[0]


def value(report, column: str, **filters):
    """The ``column`` cell of the row :func:`cell` finds."""
    return cell(report, **filters)[report.columns.index(column)]
